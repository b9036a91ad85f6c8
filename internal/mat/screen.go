package mat

import "math"

// screenMaxKept caps the columns Screen.ArgMax recomputes in fp64 for
// one row. Each one is a strided walk down a column of the source; past
// a few dozen the row is cheaper on the fp64 row sweep, so ArgMax hands
// it back instead (ok false). On trained and random weights a row keeps
// about one column.
const screenMaxKept = 32

// Screen is a read-only copy of a K×N weight matrix for finding the
// argmax of a·W + bias, one row a at a time, without reading W's fp64
// bytes: an fp32 copy of W, scored with the fp32 row sweep
// (rowSweep4avx32), and per column j the bound C_j = Σ_k |W_kj|. It
// exists for the class head of a 1–4-row pass, where the fp64 sweep
// streams 8·K·N bytes per row (2 MB at the perf shape's 256×1002, more
// than a core's L2) and the fp32 copy is half of that.
//
// What it answers is exact, not approximate: ArgMax returns the index
// ArgMax(matMulReference(a, W) + bias) returns, bit for bit, or reports
// that it cannot (see ArgMax for the proof). It never returns a logit —
// the fp32 scores only decide which columns are worth computing in
// fp64. Like Packed it is a snapshot: it keeps a reference to the
// source, which ArgMax reads for the columns it recomputes, and owners
// drop it whenever the source changes (see nn.Param).
type Screen struct {
	src *Dense
	w   []float32 // src rounded to fp32, row-major; nil when no screen was built
	c   []float64 // c[j] = Σ_k |src(k, j)|
}

// NewScreen builds the screen of w. Without the AVX sweep, for an empty
// w, or when a weight lies outside fp32's finite range (its fp32 copy
// would be infinite, and the error bound with it) nothing is built: the
// Screen holds no copy and ArgMax always reports false.
func NewScreen(w *Dense) *Screen {
	s := &Screen{src: w}
	if !useAVXGemm || w.Rows == 0 || w.Cols == 0 {
		return s
	}
	w32 := make([]float32, len(w.Data))
	c := make([]float64, w.Cols)
	for k := 0; k < w.Rows; k++ {
		row := w.Row(k)
		for j, v := range row {
			if !(math.Abs(v) <= math.MaxFloat32) {
				return s
			}
			w32[k*w.Cols+j] = float32(v)
			c[j] += math.Abs(v)
		}
	}
	s.w, s.c = w32, c
	return s
}

// Bytes reports the size of the screen (0 when none was built).
func (s *Screen) Bytes() int { return 4*len(s.w) + 8*len(s.c) }

// gamma is the classic rounding-error constant γ_k = k·u/(1 − k·u) for
// unit roundoff u: |fl(x) − x| ≤ γ_k·|x| for k chained roundings.
func gamma(k int, u float64) float64 {
	ku := float64(k) * u
	return ku / (1 - ku)
}

// screenTiny bounds the absolute error of one fp32 rounding near zero,
// whether the result is rounded to a subnormal (≤ 2⁻¹⁵⁰) or flushed to
// zero by an FTZ/DAZ floating-point mode (< 2⁻¹²⁶): the bound holds in
// either mode.
const screenTiny = 0x1p-126

// ArgMax returns ArgMax(a·W + bias) exactly as the fp64 path computes
// it — the index mat.ArgMax returns on matMulReference(a, W) + bias,
// the first of equal maxima — with ok true, or ok false when the screen
// cannot answer and the caller must run the fp64 product: no screen was
// built, a is not finite or exceeds fp32's range, a score or bias is not
// finite, or more than screenMaxKept columns survive the screen. len(a)
// must be K and len(bias) N.
//
// How. Every column gets an fp32 score S_j (a and W rounded to fp32,
// products and sums in fp32, zero inputs of a skipped) and a score
// s_j = S_j + b_j in fp64. With L_j the fp64 logit and E_j ≥ |s_j − L_j|,
// every column with s_j + E_j ≥ max_i (s_i − E_i) is kept and recomputed
// exactly — fp64, ascending k, un-fused, plus the bias, which is
// matMulReference's arithmetic and so L_j's bits — and the first
// maximum among the kept columns is returned.
//
// Why that is L's first argmax j*. For every i, s_j* + E_j* ≥ L_j* ≥
// L_i ≥ s_i − E_i, so j* is kept; in floating point too, because L_j*
// and L_i are fp64 numbers and rounding is monotone, so fl(s_j* + E_j*)
// ≥ L_j* and fl(s_i − E_i) ≤ L_i. A kept column before j* has a
// smaller logit than j* (j* is the first maximum) and one after it no
// larger, so the first maximum among the kept columns is j*.
//
// The bound. Let m = K, α = max_k |a_k| and C_j = Σ_k |W_kj|, so
// Σ_k |a_k·W_kj| ≤ α·C_j; write D_j = Σ_k a_k·W_kj exactly and
// u₃₂ = 2⁻²⁴, u₆₄ = 2⁻⁵³, η = 2⁻¹²⁶ (screenTiny). Each fp32 rounding
// is x(1+δ) + e with |δ| ≤ u₃₂ and |e| ≤ η.
//   - fp32 rounding, relative: a term a_k·W_kj passes through the
//     rounding of a_k, of W_kj, of the product and of at most m − 1
//     partial sums, so these contribute at most γ₃₂(m+2)·α·C_j.
//   - fp32 underflow, absolute: the e of a_k's rounding is multiplied by
//     |W_kj| (C_j over all k), that of W_kj by |a_k| (m·α), the
//     product's and each sum's add η (2m), all times (1+γ₃₂(m+1)) plus
//     m·η² — under η·(m·α + C_j + 3m) in total. So
//     |S_j − D_j| ≤ γ₃₂(m+2)·α·C_j + η·(m·α + C_j + 3m).
//   - the fp64 path: L_j = fl(fl(dot) + b_j) is m products and sums and
//     the bias add, |L_j − (D_j + b_j)| ≤ γ₆₄(m+1)·(α·C_j + |b_j|) (its
//     underflow, m·2⁻¹⁰⁷⁵ at most, is inside the η term), and s_j's own
//     bias add costs one more u₆₄·|S_j + b_j|.
//
// Adding up, with the spare (1+u) factors folded into γ₃₂(m+3) and
// γ₆₄(m+2),
//
//	|s_j − L_j| ≤ γ₃₂(m+3)·α·C_j + γ₆₄(m+2)·(α·C_j + |b_j|) + η·(m·α + C_j + 3m),
//
// and E_j is twice that. The factor of 2 covers what the derivation
// does not: C_j and E_j are themselves computed in fp64 (a few dozen
// roundings of relative size u₆₄ at most), and the (1+γ) cross terms.
func (s *Screen) ArgMax(a, bias []float64) (class int, ok bool) {
	k, n := s.src.Rows, s.src.Cols
	if len(a) != k || len(bias) != n {
		panic("mat: Screen.ArgMax operand lengths do not match the screened matrix")
	}
	if s.w == nil {
		return -1, false
	}
	scores := make([]float32, n)
	alpha, ok := s.score(scores, a)
	if !ok {
		return -1, false
	}
	g32, g64 := gamma(k+3, 0x1p-24), gamma(k+2, 0x1p-53)
	perC := 2 * ((g32+g64)*alpha + screenTiny)
	perB := 2 * g64
	fixed := 2 * screenTiny * (float64(k)*alpha + 3*float64(k))
	bound := func(j int) float64 { return perC*s.c[j] + perB*math.Abs(bias[j]) + fixed }

	maxLo := math.Inf(-1)
	for j, sc := range scores {
		sj := float64(sc) + bias[j]
		if !(math.Abs(sj) <= math.MaxFloat64) {
			return -1, false
		}
		maxLo = max(maxLo, sj-bound(j))
	}
	best, bestLogit, kept := -1, 0.0, 0
	for j, sc := range scores {
		if float64(sc)+bias[j]+bound(j) < maxLo {
			continue
		}
		if kept++; kept > screenMaxKept {
			return -1, false
		}
		if logit := s.logit(a, bias, j); best < 0 || logit > bestLogit {
			best, bestLogit = j, logit
		}
	}
	return best, true
}

// score fills scores with the fp32 product a·W on the fp32 sweep, a's
// zeros skipped: its non-zero inputs in groups of four, in ascending k,
// the last group padded with zero inputs (a 0·w product adds nothing to
// a score). It returns α = max |a_k|, or ok false when some a_k is not
// finite or would not fit in fp32.
func (s *Screen) score(scores []float32, a []float64) (alpha float64, ok bool) {
	n := s.src.Cols
	var (
		av  [4]float32 // the group's inputs
		off [4]int     // and where their rows of w start
		g   int
	)
	for k, v := range a {
		abs := math.Abs(v)
		if !(abs <= math.MaxFloat32) {
			return 0, false
		}
		alpha = max(alpha, abs)
		v32 := float32(v)
		if v32 == 0 {
			continue
		}
		av[g], off[g] = v32, k*n
		if g++; g == 4 {
			rowSweep4avx32(n, &scores[0], &s.w[off[0]], &s.w[off[1]], &s.w[off[2]], &s.w[off[3]], &av[0])
			g = 0
		}
	}
	if g > 0 {
		for l := g; l < 4; l++ {
			av[l], off[l] = 0, off[0]
		}
		rowSweep4avx32(n, &scores[0], &s.w[off[0]], &s.w[off[1]], &s.w[off[2]], &s.w[off[3]], &av[0])
	}
	return alpha, true
}

// logit is column j's fp64 logit as the fp64 path computes it: the
// un-fused products a_k·W_kj added in ascending k from zero, then the
// bias (matMulReference, then the bias add). The conversion keeps the
// compiler from fusing a product into the add on any target.
func (s *Screen) logit(a, bias []float64, j int) float64 {
	n := s.src.Cols
	var d float64
	for k, v := range a {
		d += float64(v * s.src.Data[k*n+j])
	}
	return d + bias[j]
}
