package stats

import "math"

// Vector helpers operate on []float64 treated as dense vectors. They are
// deliberately allocation-conscious: clustering inner loops call them per
// point per cluster per iteration.

// Dot returns the inner product of a and b. It panics on length mismatch.
//
// The loop is unrolled 4-wide with independent accumulators so the four
// multiply-adds pipeline instead of serializing on one running sum; see
// BenchmarkDot. Dim < 4 and dim == 8 take fast paths that perform the
// EXACT same floating-point operations in the same order (the explicit
// +0 lane seeds in dot8 mirror the unrolled accumulators' zero init, so
// even signed-zero products round identically) — bit-identity across
// these paths is what keeps the golden trajectories valid.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("stats: Dot length mismatch")
	}
	if len(a) < 4 {
		// The 4-wide main loop below runs zero iterations for dim < 4,
		// so the scalar tail IS the whole computation: same ops, none of
		// the unrolled preamble or accumulator merge.
		s := 0.0
		for i, av := range a {
			s += av * b[i]
		}
		return s
	}
	if len(a) == 8 {
		return dot8(a, b)
	}
	b = b[:len(a)] // bounds-check elimination hint
	var s0, s1, s2, s3 float64
	i := 0
	for ; i <= len(a)-4; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := (s0 + s2) + (s1 + s3)
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// dot8 is the straight-line dim-8 inner product: the two 4-wide
// iterations and lane merge of the generic loop, fully unrolled with no
// loop control. Lane association — ((0+p0)+p4) etc., then
// (s0+s2)+(s1+s3) — matches the generic path exactly; the leading 0+
// is not folded by the compiler (unsound for -0), so the result is
// bit-identical for every input.
func dot8(a, b []float64) float64 {
	a, b = a[:8:8], b[:8:8]
	s0 := 0 + a[0]*b[0] + a[4]*b[4]
	s1 := 0 + a[1]*b[1] + a[5]*b[5]
	s2 := 0 + a[2]*b[2] + a[6]*b[6]
	s3 := 0 + a[3]*b[3] + a[7]*b[7]
	return (s0 + s2) + (s1 + s3)
}

// SqDist returns the squared Euclidean distance between a and b.
//
// Unrolled 4-wide like Dot, with the same bit-identical dim < 4 and
// dim == 8 fast paths (here the lane terms are squares, which are
// never -0, so the straight-line form needs no explicit zero seeds);
// see BenchmarkSqDist.
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("stats: SqDist length mismatch")
	}
	if len(a) < 4 {
		s := 0.0
		for i, av := range a {
			d := av - b[i]
			s += d * d
		}
		return s
	}
	if len(a) == 8 {
		return sqDist8(a, b)
	}
	b = b[:len(a)] // bounds-check elimination hint
	var s0, s1, s2, s3 float64
	i := 0
	for ; i <= len(a)-4; i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	s := (s0 + s2) + (s1 + s3)
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// sqDist8 is the straight-line dim-8 squared distance, association
// identical to two generic 4-wide iterations plus the lane merge.
func sqDist8(a, b []float64) float64 {
	a, b = a[:8:8], b[:8:8]
	d0, d1, d2, d3 := a[0]-b[0], a[1]-b[1], a[2]-b[2], a[3]-b[3]
	d4, d5, d6, d7 := a[4]-b[4], a[5]-b[5], a[6]-b[6], a[7]-b[7]
	s0 := d0*d0 + d4*d4
	s1 := d1*d1 + d5*d5
	s2 := d2*d2 + d6*d6
	s3 := d3*d3 + d7*d7
	return (s0 + s2) + (s1 + s3)
}

// Dist returns the Euclidean distance between a and b.
func Dist(a, b []float64) float64 { return math.Sqrt(SqDist(a, b)) }

// Norm returns the Euclidean norm of a.
func Norm(a []float64) float64 { return math.Sqrt(Dot(a, a)) }

// AddTo adds src into dst element-wise. It panics on length mismatch.
func AddTo(dst, src []float64) {
	if len(dst) != len(src) {
		panic("stats: AddTo length mismatch")
	}
	for i := range dst {
		dst[i] += src[i]
	}
}

// AddScaledTo adds c·src into dst element-wise. It panics on length
// mismatch. With c = ±1 every element update is bit-identical to
// AddTo/SubFrom (multiplication by one and sign flips are exact in
// IEEE-754), which is what lets the weighted clustering kernels treat
// unit weights as a transparent special case.
func AddScaledTo(dst, src []float64, c float64) {
	if len(dst) != len(src) {
		panic("stats: AddScaledTo length mismatch")
	}
	for i := range dst {
		dst[i] += c * src[i]
	}
}

// SubFrom subtracts src from dst element-wise. It panics on length
// mismatch.
func SubFrom(dst, src []float64) {
	if len(dst) != len(src) {
		panic("stats: SubFrom length mismatch")
	}
	for i := range dst {
		dst[i] -= src[i]
	}
}

// Scale multiplies dst by c in place.
func Scale(dst []float64, c float64) {
	for i := range dst {
		dst[i] *= c
	}
}

// Clone returns a copy of a.
func Clone(a []float64) []float64 { return append([]float64(nil), a...) }

// MeanVector returns the element-wise mean of the given rows. It panics
// if rows is empty or rows have mismatched lengths.
func MeanVector(rows [][]float64) []float64 {
	if len(rows) == 0 {
		panic("stats: MeanVector of no rows")
	}
	m := make([]float64, len(rows[0]))
	for _, r := range rows {
		AddTo(m, r)
	}
	Scale(m, 1/float64(len(rows)))
	return m
}
