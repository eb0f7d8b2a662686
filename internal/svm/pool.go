package svm

import (
	"encoding/binary"
	"math"
)

// svPool is the ensemble's deduplicated support-vector pool. One-vs-one
// machines share training samples heavily — a sample that is a support
// vector for several pairs appears in each of their vectors slices — so the
// pool stores every distinct (kernel, support vector) once, row-major in
// one flat backing, and maps each machine's local SV index to its pool row.
// A query evaluates K(sv, x) once per row, and every machine that shares
// the row reads the same float, which is what keeps pooled prediction
// bit-identical to per-machine Decision calls.
type svPool struct {
	flat    []float64 // rows × dim, row-major
	kernels []Kernel  // kernels[r] evaluates row r
	// svRow[p][i] is the pool row holding models[p].vectors[i].
	svRow [][]int32
}

// supportPool returns the ensemble's support-vector pool, building it on
// first use. Safe for concurrent callers; the ensemble is immutable after
// training or loading.
func (mc *Multiclass) supportPool() *svPool {
	mc.poolOnce.Do(func() { mc.pool = buildSVPool(mc) })
	return mc.pool
}

// poolKey identifies a pool row: a kernel and a vector's exact content
// (its float bit patterns). Kernels compare with ==; every kernel in this
// package is a comparable value.
type poolKey struct {
	kernel Kernel
	bits   string
}

// buildSVPool deduplicates the ensemble's support vectors by kernel and
// exact content, preserving first-appearance order. Keying rows by kernel
// too lets an ensemble whose machines use different kernels share the one
// prediction path: a vector that two kernels evaluate is two rows.
func buildSVPool(mc *Multiclass) *svPool {
	p := &svPool{svRow: make([][]int32, len(mc.models))}
	seen := make(map[poolKey]int32)
	bits := make([]byte, mc.dim*8)
	for pi, m := range mc.models {
		rows := make([]int32, len(m.vectors))
		for i, v := range m.vectors {
			for d, f := range v {
				binary.LittleEndian.PutUint64(bits[d*8:], math.Float64bits(f))
			}
			key := poolKey{m.kernel, string(bits)}
			r, ok := seen[key]
			if !ok {
				r = int32(len(p.kernels))
				seen[key] = r
				p.flat = append(p.flat, v...)
				p.kernels = append(p.kernels, m.kernel)
			}
			rows[i] = r
		}
		p.svRow[pi] = rows
	}
	return p
}
