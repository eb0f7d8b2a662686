package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// Plan precomputes everything a fixed-length DFT needs — stage twiddle
// factors and the bit-reversal shift for power-of-two lengths, plus the
// Bluestein chirp, the transformed chirp filters and convolution scratch
// for other lengths — so that Transform and Inverse run with zero
// steady-state heap allocations.
//
// A Plan owns scratch buffers and is therefore NOT safe for concurrent
// use; borrow one per goroutine with PooledPlan and give it back with
// ReleasePlan.
// Results are bit-identical to the one-shot FFT/IFFT functions.
type Plan struct {
	n  int
	r2 *radix2Plan    // non-nil when n is a power of two
	bs *bluesteinPlan // non-nil otherwise
}

// newPlan returns a plan for transforms of length n (n ≥ 1).
func newPlan(n int) *Plan {
	if n < 1 {
		panic(fmt.Sprintf("dsp: plan length %d, want ≥ 1", n))
	}
	p := &Plan{n: n}
	if n&(n-1) == 0 {
		p.r2 = newRadix2Plan(n)
	} else {
		p.bs = newBluesteinPlan(n)
	}
	return p
}

// Len returns the transform length the plan was built for.
func (p *Plan) Len() int { return p.n }

// Transform writes the forward DFT of src into dst. Both must have length
// Len(); dst may alias src for an in-place transform.
func (p *Plan) Transform(dst, src []complex128) {
	p.checkLen(dst, src)
	if p.r2 != nil {
		if &dst[0] != &src[0] {
			copy(dst, src)
		}
		p.r2.transform(dst, false)
		return
	}
	p.bs.transform(dst, src, false)
}

// Inverse writes the inverse DFT of src (normalised by 1/N) into dst. Both
// must have length Len(); dst may alias src.
func (p *Plan) Inverse(dst, src []complex128) {
	p.checkLen(dst, src)
	if p.r2 != nil {
		if &dst[0] != &src[0] {
			copy(dst, src)
		}
		p.r2.transform(dst, true)
	} else {
		p.bs.transform(dst, src, true)
	}
	inv := complex(1/float64(p.n), 0)
	for i := range dst {
		dst[i] *= inv
	}
}

func (p *Plan) checkLen(dst, src []complex128) {
	if len(dst) != p.n || len(src) != p.n {
		panic(fmt.Sprintf("dsp: plan length %d, got dst %d src %d", p.n, len(dst), len(src)))
	}
}

// radix2Plan holds the per-stage forward twiddles of an iterative
// Cooley-Tukey FFT, concatenated stage by stage (sizes 2, 4, …, n; n-1
// factors total). Inverse twiddles are the exact conjugates, taken inline.
type radix2Plan struct {
	n     int
	shift uint
	tw    []complex128
}

func newRadix2Plan(n int) *radix2Plan {
	p := &radix2Plan{n: n, shift: 64 - uint(bits.TrailingZeros(uint(n)))}
	if n > 1 {
		p.tw = make([]complex128, 0, n-1)
		for size := 2; size <= n; size <<= 1 {
			half := size / 2
			step := -2 * math.Pi / float64(size)
			for k := 0; k < half; k++ {
				p.tw = append(p.tw, cmplx.Rect(1, step*float64(k)))
			}
		}
	}
	return p
}

// transform runs the unnormalised FFT in place using the precomputed
// twiddles. Matches fftRadix2 bit for bit.
func (p *radix2Plan) transform(x []complex128, inverse bool) {
	n := p.n
	if n <= 1 {
		return
	}
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> p.shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	base := 0
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				w := p.tw[base+k]
				if inverse {
					w = cmplx.Conj(w)
				}
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
		base += half
	}
}

// bluesteinPlan caches the chirp sequence, the pre-transformed chirp
// filters (one per direction) and the convolution scratch buffer for an
// arbitrary-length DFT via the chirp-z transform.
type bluesteinPlan struct {
	n, m  int
	r2    *radix2Plan     // length-m kernel for the embedded convolution
	chirp []complex128    // forward chirp exp(-iπk²/n); inverse is the conjugate
	bfft  [2][]complex128 // FFT of the chirp filter: [0] forward, [1] inverse
	a     []complex128    // scratch, length m
}

func newBluesteinPlan(n int) *bluesteinPlan {
	p := &bluesteinPlan{n: n}
	p.chirp = make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		p.chirp[k] = cmplx.Rect(1, -math.Pi*float64(kk)/float64(n))
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	p.m = m
	p.r2 = newRadix2Plan(m)
	p.a = make([]complex128, m)
	for dir := 0; dir < 2; dir++ {
		b := make([]complex128, m)
		for k := 0; k < n; k++ {
			c := p.chirp[k]
			if dir == 1 {
				c = cmplx.Conj(c)
			}
			b[k] = cmplx.Conj(c)
			if k > 0 {
				b[m-k] = cmplx.Conj(c)
			}
		}
		p.r2.transform(b, false)
		p.bfft[dir] = b
	}
	return p
}

func (p *bluesteinPlan) transform(dst, src []complex128, inverse bool) {
	dir := 0
	if inverse {
		dir = 1
	}
	a := p.a
	for k := 0; k < p.n; k++ {
		c := p.chirp[k]
		if inverse {
			c = cmplx.Conj(c)
		}
		a[k] = src[k] * c
	}
	for k := p.n; k < p.m; k++ {
		a[k] = 0
	}
	p.r2.transform(a, false)
	bf := p.bfft[dir]
	for i := range a {
		a[i] *= bf[i]
	}
	p.r2.transform(a, true)
	invM := complex(1/float64(p.m), 0)
	for k := 0; k < p.n; k++ {
		c := p.chirp[k]
		if inverse {
			c = cmplx.Conj(c)
		}
		dst[k] = a[k] * invM * c
	}
}

// planCache hands out reusable plans keyed by length so the one-shot
// FFT/IFFT wrappers stop re-deriving twiddles and chirps on every call.
var planCache sync.Map // int → *sync.Pool of *Plan

// PooledPlan borrows a plan for length n from the package cache. Return it
// with ReleasePlan when done. Useful when a caller cannot keep a long-lived
// plan but still wants to amortise setup across calls.
func PooledPlan(n int) *Plan {
	v, ok := planCache.Load(n)
	if !ok {
		v, _ = planCache.LoadOrStore(n, &sync.Pool{New: func() any { return newPlan(n) }})
	}
	return v.(*sync.Pool).Get().(*Plan)
}

// ReleasePlan returns a plan borrowed via PooledPlan to the cache.
func ReleasePlan(p *Plan) {
	if v, ok := planCache.Load(p.n); ok {
		v.(*sync.Pool).Put(p)
	}
}
