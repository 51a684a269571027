package phy

import (
	"math"
	bits64 "math/bits"

	"rcast/internal/geom"
)

// grid is a uniform spatial index over radio positions at one instant,
// used to build the reach lists (reach.go): the radios within some radius
// of a point live in a bounded neighbourhood of cells around it, so a
// build costs O(area) per radio instead of a scan over every radio. The
// lists rebin the grid at their own build instant, so bins are never
// stale.
//
// Cells are stored in CSR form over the bounding box of occupied cells:
// cellStart[lin] .. cellStart[lin+1] delimits cell lin's radio indices in
// cellIdx, with lin = (cx-minX)*h + (cy-minY). A column-major linear index
// makes the cy-range of one cx column a single contiguous run, so a query
// touches at most three contiguous slices and performs no map lookups.
// gridScanThreshold is the population below which queries skip the CSR
// index and linearly scan the per-radio cell keys instead: four int32
// compares per radio beat the scatter/gather constant factor until the
// candidate set is a small fraction of the population.
const gridScanThreshold = 512

type grid struct {
	cell float64 // cell edge length, metres

	n          int     // registered radios at last rebin
	minX, minY int32   // cell coords of the bounding box origin
	w, h       int32   // bounding box extent, in cells
	cellStart  []int32 // CSR cell offsets into cellIdx, len w*h+1
	cellIdx    []int32 // radio indices, ascending within each cell
	keys       []gridKey
	bits       []uint64 // scratch: candidate bitmap, one bit per radio
}

type gridKey struct{ cx, cy int32 }

func (g *grid) keyFor(p geom.Point) gridKey {
	return gridKey{
		cx: int32(math.Floor(p.X / g.cell)),
		cy: int32(math.Floor(p.Y / g.cell)),
	}
}

// rebin rebuilds every bin from the radios' positions, given in
// registration order, so each cell's index run is ascending.
func (g *grid) rebin(pos []geom.Point) {
	n := len(pos)
	g.n = n
	if n == 0 {
		g.w, g.h = 0, 0
		return
	}
	if cap(g.keys) < n {
		g.keys = make([]gridKey, n)
	}
	ks := g.keys[:n]
	if n <= gridScanThreshold {
		// Small population: queries scan the keys directly, no CSR needed.
		for i, p := range pos {
			ks[i] = g.keyFor(p)
		}
		return
	}
	minX, minY := int32(math.MaxInt32), int32(math.MaxInt32)
	maxX, maxY := int32(math.MinInt32), int32(math.MinInt32)
	for i, p := range pos {
		k := g.keyFor(p)
		ks[i] = k
		minX, maxX = min(minX, k.cx), max(maxX, k.cx)
		minY, maxY = min(minY, k.cy), max(maxY, k.cy)
	}
	g.minX, g.minY = minX, minY
	g.w, g.h = maxX-minX+1, maxY-minY+1
	h := g.h
	cells := int(g.w) * int(h)
	if cap(g.cellStart) < cells+1 {
		g.cellStart = make([]int32, cells+1)
	} else {
		g.cellStart = g.cellStart[:cells+1]
		clear(g.cellStart)
	}
	start := g.cellStart
	for _, k := range ks {
		start[(k.cx-minX)*h+(k.cy-minY)+1]++
	}
	for c := 1; c <= cells; c++ {
		start[c] += start[c-1]
	}
	if cap(g.cellIdx) < n {
		g.cellIdx = make([]int32, n)
	}
	g.cellIdx = g.cellIdx[:n]
	// Counting-sort fill: place each radio at its cell's cursor. This walks
	// the cursors forward, so afterwards start[c] holds cell c's end offset;
	// the backward pass shifts the array so start[c] is cell c's begin again.
	for i, k := range ks {
		lin := (k.cx-minX)*h + (k.cy - minY)
		g.cellIdx[start[lin]] = int32(i)
		start[lin]++
	}
	for c := cells; c > 0; c-- {
		start[c] = start[c-1]
	}
	start[0] = 0
	if words := (n + 63) / 64; len(g.bits) < words {
		g.bits = make([]uint64, words)
	}
}

// candidates appends to buf the indices of every radio whose bin intersects
// the disk of the given radius around p, and returns buf sorted ascending.
// The result is a superset of the radios within radius of p; callers
// check distances, in registration order.
//
// The union of the touched cells is produced through a bitmap with one bit
// per registered radio: scatter every cell run's indices into the bitmap,
// then read the set bits back in index order. That yields the ascending
// order a sort would (indices are unique across cells) at the cost of one
// pass over candidates plus one pass over the — at realistic scales, one or
// two — bitmap words, with no allocation and no comparison sort.
func (g *grid) candidates(p geom.Point, radius float64, buf []int32) []int32 {
	buf = buf[:0]
	if g.n == 0 {
		return buf
	}
	lo := g.keyFor(geom.Point{X: p.X - radius, Y: p.Y - radius})
	hi := g.keyFor(geom.Point{X: p.X + radius, Y: p.Y + radius})
	if g.n <= gridScanThreshold {
		for i, k := range g.keys[:g.n] {
			if k.cx >= lo.cx && k.cx <= hi.cx && k.cy >= lo.cy && k.cy <= hi.cy {
				buf = append(buf, int32(i))
			}
		}
		return buf
	}
	cxLo, cxHi := max(lo.cx, g.minX), min(hi.cx, g.minX+g.w-1)
	cyLo, cyHi := max(lo.cy, g.minY), min(hi.cy, g.minY+g.h-1)
	if cxLo > cxHi || cyLo > cyHi {
		return buf
	}
	bits := g.bits
	h := g.h
	for cx := cxLo; cx <= cxHi; cx++ {
		base := (cx - g.minX) * h
		s := g.cellStart[base+(cyLo-g.minY)]
		e := g.cellStart[base+(cyHi-g.minY)+1]
		for _, i := range g.cellIdx[s:e] {
			bits[i>>6] |= 1 << (uint32(i) & 63)
		}
	}
	for w, word := range bits {
		base := int32(w << 6)
		for word != 0 {
			buf = append(buf, base+int32(bits64.TrailingZeros64(word)))
			word &= word - 1
		}
		bits[w] = 0
	}
	return buf
}
