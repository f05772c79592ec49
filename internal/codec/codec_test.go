package codec

import (
	"errors"
	"math"
	"runtime"
	"testing"
)

// decoded holds one pass of the fixed field script: write encodes it,
// read decodes it, every field type in turn.
type decoded struct {
	u8   uint8
	u32  uint32
	u64  uint64
	i64  int64
	str  string
	idx  []uint32
	vals []float64
	raw  []byte
}

func write(w *Writer, d decoded) {
	w.U8(d.u8)
	w.U32(d.u32)
	w.U64(d.u64)
	w.I64(d.i64)
	w.Str(d.str)
	w.U32(uint32(len(d.idx)))
	for _, x := range d.idx {
		w.U32(x)
	}
	w.U32(uint32(len(d.vals)))
	w.F64s(d.vals)
	w.U64(uint64(len(d.raw)))
	w.Write(d.raw)
}

func read(r *Reader) decoded {
	var d decoded
	d.u8, d.u32, d.u64, d.i64 = r.U8(), r.U32(), r.U64(), r.I64()
	d.str = r.Str()
	if n := r.Count(int(r.U32()), 4); n > 0 {
		d.idx = make([]uint32, n)
		for i := range d.idx {
			d.idx[i] = r.U32()
		}
	}
	d.vals = r.F64s(int(r.U32()))
	d.raw = r.Bytes(int(r.U64()))
	return d
}

var sample = decoded{
	u8: 0xfe, u32: 0xdeadbeef, u64: math.MaxUint64 - 1, i64: math.MinInt64 + 3,
	str:  "q1.sh.0 ∑",
	idx:  []uint32{0, 7, math.MaxUint32},
	vals: []float64{0, math.Copysign(0, -1), 1.5, -2.25, 3e300, math.Inf(-1), math.NaN()},
	raw:  []byte{1, 2, 3},
}

// allocated returns the bytes f allocates, averaged over runs.
func allocated(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// slack covers a Reader and one formatted error: the fixed cost of any
// decode, whatever the input.
const slack = 1 << 10

func TestRoundTrip(t *testing.T) {
	var w Writer
	write(&w, sample)
	if want := 1 + 4 + 8 + 8 + 4 + len(sample.str) + 4 + 4*3 + 4 + 8*7 + 8 + 3; w.Len() != want {
		t.Fatalf("encoded %d bytes, want %d", w.Len(), want)
	}
	// Little-endian on the wire: the U32 after the first byte.
	if b := w.Bytes()[1:5]; b[0] != 0xef || b[3] != 0xde {
		t.Fatalf("U32 bytes % x are not little-endian", b)
	}
	r := NewReader(w.Bytes())
	got := read(r)
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("decode: err %v, %d bytes left", r.Err(), r.Len())
	}
	if got.u8 != sample.u8 || got.u32 != sample.u32 || got.u64 != sample.u64 || got.i64 != sample.i64 || got.str != sample.str {
		t.Fatalf("scalars: got %+v", got)
	}
	for i, x := range sample.idx {
		if got.idx[i] != x {
			t.Fatalf("idx = %v", got.idx)
		}
	}
	for i, v := range sample.vals {
		if math.Float64bits(got.vals[i]) != math.Float64bits(v) {
			t.Fatalf("vals[%d] = %v, want %v (bit for bit)", i, got.vals[i], v)
		}
	}
	if string(got.raw) != string(sample.raw) {
		t.Fatalf("raw = %v", got.raw)
	}

	w.PatchU32(1, 42)
	if v := NewReader(w.Bytes()[1:]).U32(); v != 42 {
		t.Fatalf("patched U32 reads %d", v)
	}

	block := []float64{1, -0.5, math.MaxFloat64}
	buf := make([]byte, 8*len(block))
	PutF64s(buf, block)
	back := make([]float64, len(block))
	GetF64s(back, buf)
	for i := range block {
		if back[i] != block[i] {
			t.Fatalf("block helpers: %v -> %v", block, back)
		}
	}
	if n := testing.AllocsPerRun(10, func() { PutF64s(buf, block); GetF64s(back, buf) }); n != 0 {
		t.Fatalf("block helpers allocate %v times per call", n)
	}
}

// Every proper prefix of a valid encoding fails with ErrTruncated, and
// decoding it allocates no more than the prefix's own length.
func TestTruncatedEveryPrefix(t *testing.T) {
	var w Writer
	write(&w, sample)
	full := w.Bytes()
	for n := 0; n < len(full); n++ {
		var err error
		got := allocated(20, func() {
			r := NewReader(full[:n])
			read(r)
			err = r.Err()
		})
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("prefix %d/%d: err %v, want ErrTruncated", n, len(full), err)
		}
		if got > uint64(n)+slack {
			t.Fatalf("prefix %d: allocated %d bytes", n, got)
		}
	}
}

// Counts no input could back — MaxUint32, MaxInt64, negative — fail
// before anything sized by them is allocated.
func TestHugeCountsAllocateNothing(t *testing.T) {
	var hdr Writer
	hdr.U32(math.MaxUint32)
	hdr.U64(math.MaxUint64)
	in := hdr.Bytes()
	for _, tc := range []struct {
		name string
		read func(r *Reader)
	}{
		{"str-maxuint32", func(r *Reader) { r.Str() }},
		{"f64s-maxuint32", func(r *Reader) { r.F64s(int(r.U32())) }},
		{"f64s-maxint64", func(r *Reader) { r.F64s(math.MaxInt64) }},
		{"f64s-negative", func(r *Reader) { r.F64s(-1) }},
		{"bytes-maxint64", func(r *Reader) { r.Bytes(math.MaxInt64) }},
		{"bytes-negative", func(r *Reader) { r.U32(); r.Bytes(int(r.U64())) }},
		{"count-maxuint32", func(r *Reader) { r.Count(math.MaxUint32, 4) }},
		{"count-maxint64", func(r *Reader) { r.Count(math.MaxInt64, 1) }},
		{"count-negative", func(r *Reader) { r.Count(-8, 8) }},
	} {
		var err error
		got := allocated(20, func() {
			r := NewReader(in)
			tc.read(r)
			err = r.Err()
		})
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("%s: err %v, want ErrTruncated", tc.name, err)
		}
		if got > uint64(len(in))+slack {
			t.Fatalf("%s: allocated %d bytes", tc.name, got)
		}
	}
}

// The first error sticks: validation failures recorded with Fail survive
// later reads, and reads after an error return zero values.
func TestStickyError(t *testing.T) {
	r := NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	bad := errors.New("bad dims")
	r.U8()
	r.Fail(bad)
	r.Fail(errors.New("second"))
	if r.U32() != 0 || r.Str() != "" || r.F64s(0) != nil || r.Len() != 8 {
		t.Fatalf("reads after an error consumed input or returned values")
	}
	if r.Err() != bad {
		t.Fatalf("err = %v, want the first failure", r.Err())
	}
}

// FuzzReader runs arbitrary bytes through the fixed read script. It must
// never panic, and what it decodes can never exceed the input.
func FuzzReader(f *testing.F) {
	var w Writer
	write(&w, sample)
	f.Add(w.Bytes())
	f.Add(w.Bytes()[:17])
	var huge Writer
	huge.U8(0)
	huge.U32(0)
	huge.U64(0)
	huge.I64(0)
	huge.U32(math.MaxUint32)
	f.Add(huge.Bytes())
	f.Fuzz(func(t *testing.T, in []byte) {
		r := NewReader(in)
		d := read(r)
		if size := len(d.str) + 4*len(d.idx) + 8*len(d.vals) + len(d.raw); size > len(in) {
			t.Fatalf("decoded %d bytes of fields from %d bytes of input", size, len(in))
		}
		if r.Err() == nil && r.Len() > len(in) {
			t.Fatalf("Len %d exceeds the input", r.Len())
		}
	})
}
