package cluster

import (
	"fmt"
	"sort"

	"riot"
	"riot/internal/array"
	"riot/internal/codec"
	"riot/internal/plan"
	"riot/internal/sparse"
)

// Operand kinds on the wire (FrameTilePush).
const (
	kindDense  = 0
	kindSparse = 1
)

// maxSparseTiles bounds a sparse push's tile grid: the node allocates a
// directory entry per grid tile, however few of them hold nonzeros.
const maxSparseTiles = 1 << 24

// operand is a coordinator-side operand in its stored form: exactly one
// of dense and sp is set. Pushes read it tile by tile.
type operand struct {
	dense *array.Matrix
	sp    *sparse.Matrix
}

// storedOperand forces m and returns the stored array behind it.
func storedOperand(m *riot.Matrix) (operand, error) {
	d, s, err := m.Stored()
	return operand{dense: d, sp: s}, err
}

// unit is one piece of a share along the sharded axis: the source range
// [lo, hi), the share it goes to, and its offset within that share.
type unit struct {
	lo, hi int64
	share  int
	off    int64
}

// shareUnits cuts every share's ranges into units — one per tile when
// side > 0, one per range otherwise — and sorts them by source
// position, the order a row-major pass over the tiles meets them. With
// tiles, each unit must start on a tile edge of both the source and its
// share, so shipped tiles are source tiles one to one; that holds when
// every range starts on a tile edge and a share's only partial tile, the
// source's last, ends its share.
func shareUnits(shares [][]bandSpec, side int64) ([]unit, error) {
	var us []unit
	for s, share := range shares {
		var off int64
		for _, r := range share {
			step := r.hi - r.lo
			if side > 0 {
				step = side
			}
			for lo := r.lo; lo < r.hi; lo += step {
				u := unit{lo: lo, hi: min(lo+step, r.hi), share: s, off: off}
				if side > 0 && (u.lo%side != 0 || u.off%side != 0) {
					return nil, fmt.Errorf("cluster: range [%d,%d) is not aligned to %d-element tiles", r.lo, r.hi, side)
				}
				us = append(us, u)
				off += u.hi - u.lo
			}
		}
	}
	sort.Slice(us, func(i, j int) bool { return us[i].lo < us[j].lo })
	return us, nil
}

// encodePushes reads o once, in row-major tile order, and encodes one
// FrameTilePush per share: share s installs, under names[s], the
// concatenation of its ranges along the sharded axis (rows when byRows,
// columns otherwise) with the other axis whole. A dense operand travels
// as row-major values; a sparse one as its nonzeros, tile by tile, so
// the payload scales with nnz.
func encodePushes(o operand, byRows bool, names []string, shares [][]bandSpec) ([][]byte, error) {
	if o.sp != nil {
		return encodeSparse(o.sp, byRows, names, shares)
	}
	d := o.dense
	us, err := shareUnits(shares, 0)
	if err != nil {
		return nil, err
	}
	vals := make([][]float64, len(shares))
	dims := make([][2]int64, len(shares))
	for s, share := range shares {
		dims[s] = [2]int64{d.Rows(), spanLen(share)}
		if byRows {
			dims[s] = [2]int64{spanLen(share), d.Cols()}
		}
		vals[s] = make([]float64, dims[s][0]*dims[s][1])
	}
	if byRows {
		for _, u := range us {
			if err := d.ReadRect(u.lo, u.hi, 0, d.Cols(), vals[u.share][u.off*d.Cols():], d.Cols()); err != nil {
				return nil, err
			}
		}
	} else {
		tr, _ := d.TileDims()
		for r0 := int64(0); r0 < d.Rows(); r0 += int64(tr) {
			r1 := min(r0+int64(tr), d.Rows())
			for _, u := range us {
				ld := dims[u.share][1]
				if err := d.ReadRect(r0, r1, u.lo, u.hi, vals[u.share][r0*ld+u.off:], ld); err != nil {
					return nil, err
				}
			}
		}
	}
	out := make([][]byte, len(shares))
	for s := range shares {
		var w codec.Writer
		w.Str(names[s])
		w.U8(kindDense)
		w.I64(dims[s][0])
		w.I64(dims[s][1])
		w.F64s(vals[s])
		out[s] = w.Bytes()
	}
	return out, nil
}

// encodeSparse is encodePushes for a sparse operand: each share's tiles
// are written in its own row-major tile order, which a row-major pass
// over the source produces because a share's units ascend.
func encodeSparse(sp *sparse.Matrix, byRows bool, names []string, shares [][]bandSpec) ([][]byte, error) {
	tr, tc := sp.TileDims()
	if tr != tc {
		return nil, fmt.Errorf("cluster: sparse operand has %dx%d tiles, want square", tr, tc)
	}
	side := int64(tr)
	us, err := shareUnits(shares, side)
	if err != nil {
		return nil, err
	}
	ws := make([]codec.Writer, len(shares))
	counts := make([]uint32, len(shares))
	countAt := make([]int, len(shares))
	for s, share := range shares {
		w := &ws[s]
		w.Str(names[s])
		w.U8(kindSparse)
		if byRows {
			w.I64(spanLen(share))
			w.I64(sp.Cols())
		} else {
			w.I64(sp.Rows())
			w.I64(spanLen(share))
		}
		w.U32(uint32(side))
		countAt[s] = w.Len()
		w.U32(0) // the tile count, patched once known
	}
	var idx []uint32
	var vals []float64
	emit := func(s, ti, tj, sti, stj int) error {
		if sp.TileEmpty(ti, tj) {
			return nil
		}
		idx, vals = idx[:0], vals[:0]
		if err := sp.IterTile(ti, tj, func(r, c int, v float64) error {
			idx = append(idx, uint32(r*tc+c))
			vals = append(vals, v)
			return nil
		}); err != nil {
			return err
		}
		w := &ws[s]
		w.U32(uint32(sti))
		w.U32(uint32(stj))
		w.U32(uint32(len(idx)))
		for _, x := range idx {
			w.U32(x)
		}
		w.F64s(vals)
		counts[s]++
		return nil
	}
	gr, gc := sp.GridDims()
	if byRows {
		for _, u := range us {
			for tj := 0; tj < gc; tj++ {
				if err := emit(u.share, int(u.lo/side), tj, int(u.off/side), tj); err != nil {
					return nil, err
				}
			}
		}
	} else {
		for ti := 0; ti < gr; ti++ {
			for _, u := range us {
				if err := emit(u.share, ti, int(u.lo/side), ti, int(u.off/side)); err != nil {
					return nil, err
				}
			}
		}
	}
	out := make([][]byte, len(shares))
	for s := range ws {
		ws[s].PatchU32(countAt[s], counts[s])
		out[s] = ws[s].Bytes()
	}
	return out, nil
}

// wire says how a share of o travels — its ranges along the sharded
// axis (rows when byRows, columns otherwise), the other axis whole: a
// sparse share by its nonzeros, counted from the tile directory without
// I/O.
func (o operand) wire(byRows bool, share []bandSpec) (plan.Wire, error) {
	if o.sp == nil {
		return plan.Wire{}, nil
	}
	tr, _ := o.sp.TileDims()
	us, err := shareUnits([][]bandSpec{share}, int64(tr))
	if err != nil {
		return plan.Wire{}, err
	}
	gr, gc := o.sp.GridDims()
	w := plan.Wire{Sparse: true}
	for _, u := range us {
		t := int(u.lo) / tr
		if byRows {
			for tj := 0; tj < gc; tj++ {
				w.NNZ += int64(o.sp.TileNNZ(t, tj))
			}
		} else {
			for ti := 0; ti < gr; ti++ {
				w.NNZ += int64(o.sp.TileNNZ(ti, t))
			}
		}
	}
	return w, nil
}

// spanLen is the total length of a range list.
func spanLen(rs []bandSpec) int64 {
	var n int64
	for _, r := range rs {
		n += r.hi - r.lo
	}
	return n
}

// sparseTile is one decoded tile of a sparse push.
type sparseTile struct {
	ti, tj int
	idx    []uint32 // in-tile row-major indexes, ascending
	vals   []float64
}

// sparseBody parses a sparse TilePush body from its dims on and
// validates all of it — dims, tile side, grid size, tile coordinates and
// order, every nnz, index and value — before the caller allocates
// anything; the decoded tiles take no more memory than their wire bytes.
func sparseBody(r *codec.Reader) (rows, cols int64, side int, tiles []sparseTile) {
	rows, cols = dims(r)
	side = int(r.U32())
	n := int(r.U32())
	if r.Err() != nil {
		return 0, 0, 0, nil
	}
	fail := func(format string, args ...any) (int64, int64, int, []sparseTile) {
		r.Fail(fmt.Errorf("cluster: sparse push: "+format, args...))
		return 0, 0, 0, nil
	}
	if side < 1 || side > 1<<15 {
		return fail("implausible tile side %d", side)
	}
	s := int64(side)
	gr, gc := (rows+s-1)/s, (cols+s-1)/s
	if gr*gc > maxSparseTiles {
		return fail("%dx%d tile grid exceeds %d tiles", gr, gc, maxSparseTiles)
	}
	// Every shipped tile costs at least 12 header bytes and one
	// 12-byte entry.
	if n > r.Len()/24 {
		return fail("%d tiles cannot fit in %d bytes", n, r.Len())
	}
	tiles = make([]sparseTile, 0, n)
	prev := int64(-1)
	for k := 0; k < n; k++ {
		ti, tj, nnz := int64(r.U32()), int64(r.U32()), int(r.U32())
		if r.Err() != nil {
			return 0, 0, 0, nil
		}
		if ti >= gr || tj >= gc || ti*gc+tj <= prev {
			return fail("tile (%d,%d) outside the %dx%d grid or out of order", ti, tj, gr, gc)
		}
		prev = ti*gc + tj
		h, w := min(s, rows-ti*s), min(s, cols-tj*s)
		if nnz < 1 || int64(nnz) > h*w || nnz > r.Len()/12 {
			return fail("tile (%d,%d) declares %d nonzeros", ti, tj, nnz)
		}
		t := sparseTile{ti: int(ti), tj: int(tj), idx: make([]uint32, nnz)}
		last := int64(-1)
		for e := range t.idx {
			t.idx[e] = r.U32()
			x := int64(t.idx[e])
			if x <= last || x/s >= h || x%s >= w {
				return fail("tile (%d,%d) index %d out of order or outside the tile", ti, tj, x)
			}
			last = x
		}
		t.vals = r.F64s(nnz)
		for _, v := range t.vals {
			if v == 0 {
				return fail("tile (%d,%d) ships an explicit zero", ti, tj)
			}
		}
		tiles = append(tiles, t)
	}
	return rows, cols, side, tiles
}

// installSparse builds the parsed tiles into a sparse matrix of sess.
func installSparse(sess *riot.Session, rows, cols int64, side int, tiles []sparseTile) (*riot.Matrix, error) {
	return sess.NewSparseMatrix(rows, cols, side, func(b *sparse.Builder) error {
		scratch := make([]float64, side*side)
		for _, t := range tiles {
			for e, x := range t.idx {
				scratch[x] = t.vals[e]
			}
			if err := b.SetTile(t.ti, t.tj, scratch); err != nil {
				return err
			}
			for _, x := range t.idx {
				scratch[x] = 0
			}
		}
		return nil
	})
}
