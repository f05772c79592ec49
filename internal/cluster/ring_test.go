package cluster

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"riot/internal/codec"
)

// ringKeys is the table the placement tests sweep: a few arrays, many
// tiles each.
func ringKeys(arrays, tiles int) [][2]interface{} {
	var keys [][2]interface{}
	for a := 0; a < arrays; a++ {
		for t := 0; t < tiles; t++ {
			keys = append(keys, [2]interface{}{fmt.Sprintf("arr%d", a), t})
		}
	}
	return keys
}

func owners(r *Ring, keys [][2]interface{}) map[[2]interface{}]string {
	out := make(map[[2]interface{}]string, len(keys))
	for _, k := range keys {
		o, ok := r.Owner(k[0].(string), k[1].(int))
		if !ok {
			continue
		}
		out[k] = o
	}
	return out
}

// Placement must be a pure function of (seed, replicas, members): two
// independently built rings — as a coordinator and a remote peer would
// build them in different processes — agree on every owner, and a
// changed seed disagrees somewhere.
func TestRingDeterministic(t *testing.T) {
	keys := ringKeys(3, 64)
	a := NewRing("pr10", 64, "node0", "node1", "node2")
	b := NewRing("pr10", 64, "node2", "node0", "node1") // join order must not matter
	oa, ob := owners(a, keys), owners(b, keys)
	for _, k := range keys {
		if oa[k] != ob[k] {
			t.Fatalf("owner(%v): %q vs %q across instances", k, oa[k], ob[k])
		}
	}
	c := NewRing("other-seed", 64, "node0", "node1", "node2")
	oc := owners(c, keys)
	same := 0
	for _, k := range keys {
		if oa[k] == oc[k] {
			same++
		}
	}
	if same == len(keys) {
		t.Fatalf("placement ignored the seed: all %d owners identical", len(keys))
	}
}

// Pinned owners: FNV-1a placement is deterministic forever, so these
// constants hold in any process on any platform — the cross-process
// determinism the coordinator relies on.
func TestRingPinnedOwners(t *testing.T) {
	r := NewRing("pr10", 64, "node0", "node1", "node2")
	for _, tc := range []struct {
		array string
		tile  int
		want  string
	}{
		{"matmul/L/96x96x96", 0, "node1"},
		{"matmul/L/96x96x96", 1, "node0"},
		{"matmul/L/96x96x96", 2, "node1"},
		{"arr0", 7, "node1"},
	} {
		got, ok := r.Owner(tc.array, tc.tile)
		if !ok || got != tc.want {
			t.Errorf("Owner(%q, %d) = %q, want %q", tc.array, tc.tile, got, tc.want)
		}
	}
}

// A joining node takes over at most its fair share — and only ever
// keys it now owns: nothing moves between surviving nodes.
func TestRingRebalanceOnJoin(t *testing.T) {
	keys := ringKeys(4, 48) // 192 keys
	r := NewRing("placement", 64, "node0", "node1")
	before := owners(r, keys)
	r.Add("node2")
	after := owners(r, keys)
	moved := 0
	for _, k := range keys {
		if before[k] != after[k] {
			moved++
			if after[k] != "node2" {
				t.Fatalf("key %v moved %q -> %q, not to the joining node", k, before[k], after[k])
			}
		}
	}
	// ceil(192/3) = 64 is the fair-share bound: a join may move at most
	// the joining node's fair share of the keys (movement ≈ keys/N in
	// expectation; this seed's deterministic placement moves 54, and the
	// hash never changes, so the bound holds forever).
	if limit := (len(keys) + 2) / 3; moved > limit {
		t.Fatalf("join moved %d of %d keys, limit %d", moved, len(keys), limit)
	}
	if moved == 0 {
		t.Fatalf("join moved nothing: new node owns no keys")
	}
}

// After a member is removed, no key maps to it, and keys the dead node
// never owned keep their owners.
func TestRingRemoveDeadNode(t *testing.T) {
	keys := ringKeys(4, 48)
	r := NewRing("pr10", 64, "node0", "node1", "node2")
	before := owners(r, keys)
	r.Remove("node1")
	after := owners(r, keys)
	for _, k := range keys {
		if after[k] == "node1" {
			t.Fatalf("key %v still maps to the removed node", k)
		}
		if before[k] != "node1" && before[k] != after[k] {
			t.Fatalf("key %v moved %q -> %q though its owner survived", k, before[k], after[k])
		}
	}
	if got := r.Nodes(); len(got) != 2 || got[0] != "node0" || got[1] != "node2" {
		t.Fatalf("Nodes() = %v after removal", got)
	}
	r.Remove("node0")
	r.Remove("node2")
	if _, ok := r.Owner("arr0", 0); ok {
		t.Fatalf("empty ring still claims an owner")
	}
}

// Frame encoding round-trips every payload primitive, and a truncated
// payload fails decode instead of panicking.
func TestFrameRoundTrip(t *testing.T) {
	var w codec.Writer
	w.Str("q1.sh.0")
	w.U8(kindSparse)
	w.U64(12345678901234)
	w.F64s([]float64{0, 1.5, -2.25, 3e300})

	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameTilePush, w.Bytes()); err != nil {
		t.Fatal(err)
	}
	ft, payload, err := ReadFrame(&buf)
	if err != nil || ft != FrameTilePush {
		t.Fatalf("ReadFrame: type %#x err %v", ft, err)
	}
	r := codec.NewReader(payload)
	if s := r.Str(); s != "q1.sh.0" {
		t.Fatalf("str = %q", s)
	}
	if k := r.U8(); k != kindSparse {
		t.Fatalf("u8 = %d", k)
	}
	if v := r.U64(); v != 12345678901234 {
		t.Fatalf("u64 = %d", v)
	}
	vals := r.F64s(4)
	if r.Err() != nil || len(vals) != 4 || vals[3] != 3e300 {
		t.Fatalf("f64s = %v (err %v)", vals, r.Err())
	}

	tr := codec.NewReader(payload[:5]) // truncated mid-string
	_ = tr.Str()
	if tr.Err() == nil {
		t.Fatalf("truncated payload decoded without error")
	}
}

// A length prefix alone buys no allocation: a header declaring 2^30
// bytes followed by EOF fails ReadFrame having allocated at most one
// chunk, not the declared gigabyte. A frame spanning several chunks
// still reads back whole.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	var hdr codec.Writer
	hdr.U8(uint8(FrameTilePush))
	hdr.U32(1 << 30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadFrame(bytes.NewReader(hdr.Bytes()))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("ReadFrame accepted a header with no payload behind it")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<20 {
		t.Fatalf("ReadFrame allocated %d bytes for a frame that never arrived", got)
	}

	big := make([]byte, 5*frameChunk/2+3)
	for i := range big {
		big[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameTileData, big); err != nil {
		t.Fatal(err)
	}
	ft, got, err := ReadFrame(bytes.NewReader(buf.Bytes()[:buf.Len()-1]))
	if err == nil {
		t.Fatalf("ReadFrame accepted a frame one byte short (type %#x, %d bytes)", ft, len(got))
	}
	ft, got, err = ReadFrame(&buf)
	if err != nil || ft != FrameTileData || !bytes.Equal(got, big) {
		t.Fatalf("multi-chunk frame: type %#x, %d bytes, err %v", ft, len(got), err)
	}
}
