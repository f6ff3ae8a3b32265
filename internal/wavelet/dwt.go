// Package wavelet implements the two wavelet machines the paper relies
// on:
//
//   - an orthogonal discrete wavelet transform (DWT) with periodic
//     boundaries, used as the sparsity basis for compressed sensing
//     (Section III.A, refs [4][16]): ECG is sparse in Daubechies wavelets,
//     and the CS solvers in internal/cs minimise the ℓ1 norm of these
//     coefficients;
//
//   - the undecimated à-trous filter bank with the quadratic-spline
//     derivative wavelet used by the embedded delineator (Section III.C,
//     ref [12]): wave boundaries appear as modulus-maxima pairs across
//     scales 2¹..2⁵, and the filter coefficients are dyadic rationals so
//     the whole transform runs with integer shifts and adds on the node
//     (Section IV.A).
package wavelet

import "errors"

// Errors returned by transform constructors and calls.
var (
	ErrLength = errors.New("wavelet: signal length must be divisible by 2^levels")
	ErrLevels = errors.New("wavelet: invalid number of decomposition levels")
)

// Orthogonal holds an orthogonal wavelet's analysis low-pass filter; the
// remaining three filters follow by quadrature-mirror relations. The
// high-pass mirror is derived once at construction so the per-level
// transform kernels never allocate.
type Orthogonal struct {
	name string
	h    []float64 // analysis low-pass
	gf   []float64 // analysis high-pass (alternating-flip of h)
	// tab holds each tap duplicated for two packed lanes,
	// h[k],h[k],g[k],g[k] at 4k, for the assembly tile interiors.
	tab []float64
}

// newOrthogonal derives the quadrature-mirror high-pass at construction,
// g[k] = (-1)^k h[L-1-k], and the duplicated tap table. All three are
// immutable afterwards.
func newOrthogonal(name string, h []float64) *Orthogonal {
	L := len(h)
	g := make([]float64, L)
	tab := make([]float64, 0, 4*L)
	for k := 0; k < L; k++ {
		if k%2 == 0 {
			g[k] = h[L-1-k]
		} else {
			g[k] = -h[L-1-k]
		}
		tab = append(tab, h[k], h[k], g[k], g[k])
	}
	return &Orthogonal{name: name, h: h, gf: g, tab: tab}
}

// Name returns the wavelet's conventional name.
func (w *Orthogonal) Name() string { return w.name }

// Taps returns the number of filter taps.
func (w *Orthogonal) Taps() int { return len(w.h) }

// Haar returns the 2-tap Haar wavelet.
func Haar() *Orthogonal {
	s := 0.7071067811865476
	return newOrthogonal("haar", []float64{s, s})
}

// Daubechies4 returns the 4-tap Daubechies wavelet (db2 in MATLAB
// nomenclature, 2 vanishing moments).
func Daubechies4() *Orthogonal {
	return newOrthogonal("db4", []float64{
		0.48296291314469025, 0.83651630373746899,
		0.22414386804185735, -0.12940952255092145,
	})
}

// Daubechies8 returns the 8-tap Daubechies wavelet (db4 in MATLAB
// nomenclature, 4 vanishing moments) — the standard ECG sparsity basis in
// the CS literature the paper builds on.
func Daubechies8() *Orthogonal {
	return newOrthogonal("db8", []float64{
		0.23037781330885523, 0.71484657055254153,
		0.63088076792959036, -0.02798376941698385,
		-0.18703481171888114, 0.03084138183598697,
		0.03288301166698295, -0.01059740178499728,
	})
}

// Symlet8 returns the 8-tap least-asymmetric Daubechies (sym4) wavelet.
func Symlet8() *Orthogonal {
	return newOrthogonal("sym8", []float64{
		-0.07576571478927333, -0.02963552764599851,
		0.49761866763201545, 0.80373875180591614,
		0.29785779560527736, -0.09921954357684722,
		-0.01260396726203783, 0.03222310060404270,
	})
}

// g returns the analysis high-pass filter (derived at construction).
func (w *Orthogonal) g() []float64 { return w.gf }

// analyzeOne performs one decimating analysis step with periodic
// boundaries, writing approximation into a and detail into d
// (each len(x)/2). len(x) must be even.
func (w *Orthogonal) analyzeOne(x, a, d []float64) {
	n := len(x)
	h := w.h
	g := w.g()
	L := len(h)
	for i := 0; i < n/2; i++ {
		var sa, sd float64
		base := 2 * i
		for k := 0; k < L; k++ {
			j := base + k
			for j >= n {
				j -= n
			}
			sa += h[k] * x[j]
			sd += g[k] * x[j]
		}
		a[i] = sa
		d[i] = sd
	}
}

// synthesizeOne inverts one analysis step (periodic boundaries).
func (w *Orthogonal) synthesizeOne(a, d, x []float64) {
	n := len(x)
	h := w.h
	g := w.g()
	L := len(h)
	for i := range x {
		x[i] = 0
	}
	for i := 0; i < n/2; i++ {
		base := 2 * i
		for k := 0; k < L; k++ {
			j := base + k
			for j >= n {
				j -= n
			}
			x[j] += h[k]*a[i] + g[k]*d[i]
		}
	}
}

// Scratch holds the ping-pong work buffers the Into transform variants
// use instead of allocating. A zero Scratch is ready to use; buffers grow
// on demand and are reused across calls. A Scratch must not be shared
// between concurrent transforms.
type Scratch struct {
	a, b []float64
}

// buffers returns two independent length-n work slices, growing the
// backing arrays when needed.
func (s *Scratch) buffers(n int) ([]float64, []float64) {
	if cap(s.a) < n {
		s.a = make([]float64, n)
	}
	if cap(s.b) < n {
		s.b = make([]float64, n)
	}
	return s.a[:n], s.b[:n]
}

// Forward computes a 'levels'-deep periodic DWT of x and returns the
// coefficient vector laid out as [a_L | d_L | d_{L-1} | ... | d_1], the
// standard pyramid order. len(x) must be divisible by 2^levels. A level
// shorter than the filter wraps the taps around it more than once (a
// true periodic wrap), so every such depth stays orthonormal.
func (w *Orthogonal) Forward(x []float64, levels int) ([]float64, error) {
	out := make([]float64, len(x))
	var s Scratch
	if err := w.ForwardInto(x, levels, out, &s); err != nil {
		return nil, err
	}
	return out, nil
}

// ForwardInto is Forward writing the pyramid-ordered coefficients into
// out (len(x)) and drawing all intermediates from s — allocation-free in
// steady state.
func (w *Orthogonal) ForwardInto(x []float64, levels int, out []float64, s *Scratch) error {
	if levels < 1 {
		return ErrLevels
	}
	n := len(x)
	if n == 0 || n%(1<<uint(levels)) != 0 {
		return ErrLength
	}
	if len(out) != n {
		return ErrLength
	}
	cur, next := s.buffers(n)
	copy(cur, x)
	pos := n
	curLen := n
	for lev := 0; lev < levels; lev++ {
		half := curLen / 2
		w.analyzeOne(cur[:curLen], next[:half], out[pos-half:pos])
		pos -= half
		curLen = half
		cur, next = next, cur
	}
	copy(out[:curLen], cur[:curLen])
	return nil
}

// Inverse reconstructs the signal from a pyramid-ordered coefficient
// vector produced by Forward with the same number of levels.
func (w *Orthogonal) Inverse(c []float64, levels int) ([]float64, error) {
	out := make([]float64, len(c))
	var s Scratch
	if err := w.InverseInto(c, levels, out, &s); err != nil {
		return nil, err
	}
	return out, nil
}

// InverseInto is Inverse writing the reconstructed signal into out
// (len(c)) and drawing all intermediates from s — allocation-free in
// steady state.
func (w *Orthogonal) InverseInto(c []float64, levels int, out []float64, s *Scratch) error {
	if levels < 1 {
		return ErrLevels
	}
	n := len(c)
	if n == 0 || n%(1<<uint(levels)) != 0 {
		return ErrLength
	}
	if len(out) != n {
		return ErrLength
	}
	alen := n >> uint(levels)
	cur, next := s.buffers(n)
	copy(cur[:alen], c[:alen])
	pos := alen
	curLen := alen
	for lev := levels; lev >= 1; lev-- {
		d := c[pos : pos+curLen]
		dst := next[:2*curLen]
		if lev == 1 {
			dst = out
		}
		w.synthesizeOne(cur[:curLen], d, dst)
		pos += curLen
		curLen *= 2
		cur, next = next, cur
	}
	return nil
}

// LevelSlices describes the pyramid layout: it returns the [start,end)
// ranges of the approximation band followed by detail bands d_L..d_1 for
// a length-n, 'levels'-deep transform. Used by the group-sparse CS solver
// to form coefficient groups.
func LevelSlices(n, levels int) ([][2]int, error) {
	if levels < 1 {
		return nil, ErrLevels
	}
	if n == 0 || n%(1<<uint(levels)) != 0 {
		return nil, ErrLength
	}
	var out [][2]int
	alen := n >> uint(levels)
	out = append(out, [2]int{0, alen})
	pos := alen
	for lev := levels; lev >= 1; lev-- {
		dlen := n >> uint(lev)
		out = append(out, [2]int{pos, pos + dlen})
		pos += dlen
	}
	return out, nil
}
