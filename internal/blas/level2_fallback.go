package blas

import "math"

// Pure-Go mirrors of the level-2 assembly kernels. Each mirror reproduces
// its assembly twin bit for bit: same fused multiply-adds (math.FMA
// compiles to VFMADD on amd64 and is exactly-rounded everywhere else),
// same lane decomposition, same reduction order. The *Kernel wrappers
// below are the only call sites; they pick the path from useAsmKernel so
// setAsmKernel flips level 2 together with the GEMM micro-kernel.

// ddotGo mirrors ddotAsm: two 4-lane FMA chains over 8-element blocks, one
// optional 4-lane block folded into chain 0, lanewise chain merge,
// (l0+l2)+(l1+l3) reduction, sequential scalar FMAs over the tail.
func ddotGo(x, y []float64) float64 {
	n := len(x)
	var a0, a1, a2, a3, b0, b1, b2, b3 float64
	i := 0
	for ; i+8 <= n; i += 8 {
		a0 = math.FMA(x[i], y[i], a0)
		a1 = math.FMA(x[i+1], y[i+1], a1)
		a2 = math.FMA(x[i+2], y[i+2], a2)
		a3 = math.FMA(x[i+3], y[i+3], a3)
		b0 = math.FMA(x[i+4], y[i+4], b0)
		b1 = math.FMA(x[i+5], y[i+5], b1)
		b2 = math.FMA(x[i+6], y[i+6], b2)
		b3 = math.FMA(x[i+7], y[i+7], b3)
	}
	if i+4 <= n {
		a0 = math.FMA(x[i], y[i], a0)
		a1 = math.FMA(x[i+1], y[i+1], a1)
		a2 = math.FMA(x[i+2], y[i+2], a2)
		a3 = math.FMA(x[i+3], y[i+3], a3)
		i += 4
	}
	l0, l1, l2, l3 := a0+b0, a1+b1, a2+b2, a3+b3
	s := (l0 + l2) + (l1 + l3)
	for ; i < n; i++ {
		s = math.FMA(x[i], y[i], s)
	}
	return s
}

// daxpyGo mirrors daxpyAsm: y[i] = fma(alpha, x[i], y[i]). Elementwise, so
// no decomposition to match beyond the FMA itself.
func daxpyGo(alpha float64, x, y []float64) {
	for i, v := range x {
		y[i] = math.FMA(alpha, v, y[i])
	}
}

// gemvT4Go mirrors dgemvT4Asm: out[c] = Σ_i ac[i]·x[i] for four columns
// sharing x, one 4-lane chain per column over 4-element blocks, ddot-style
// per-column reduction, scalar-FMA tail.
func gemvT4Go(a0, a1, a2, a3, x []float64, out *[4]float64) {
	m := len(x)
	var s00, s01, s02, s03 float64
	var s10, s11, s12, s13 float64
	var s20, s21, s22, s23 float64
	var s30, s31, s32, s33 float64
	i := 0
	for ; i+4 <= m; i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		s00 = math.FMA(a0[i], x0, s00)
		s01 = math.FMA(a0[i+1], x1, s01)
		s02 = math.FMA(a0[i+2], x2, s02)
		s03 = math.FMA(a0[i+3], x3, s03)
		s10 = math.FMA(a1[i], x0, s10)
		s11 = math.FMA(a1[i+1], x1, s11)
		s12 = math.FMA(a1[i+2], x2, s12)
		s13 = math.FMA(a1[i+3], x3, s13)
		s20 = math.FMA(a2[i], x0, s20)
		s21 = math.FMA(a2[i+1], x1, s21)
		s22 = math.FMA(a2[i+2], x2, s22)
		s23 = math.FMA(a2[i+3], x3, s23)
		s30 = math.FMA(a3[i], x0, s30)
		s31 = math.FMA(a3[i+1], x1, s31)
		s32 = math.FMA(a3[i+2], x2, s32)
		s33 = math.FMA(a3[i+3], x3, s33)
	}
	t0 := (s00 + s02) + (s01 + s03)
	t1 := (s10 + s12) + (s11 + s13)
	t2 := (s20 + s22) + (s21 + s23)
	t3 := (s30 + s32) + (s31 + s33)
	for ; i < m; i++ {
		xi := x[i]
		t0 = math.FMA(a0[i], xi, t0)
		t1 = math.FMA(a1[i], xi, t1)
		t2 = math.FMA(a2[i], xi, t2)
		t3 = math.FMA(a3[i], xi, t3)
	}
	out[0], out[1], out[2], out[3] = t0, t1, t2, t3
}

// gemvN4Go mirrors dgemvN4Asm: y[i] accumulates the four column
// contributions chained in order c = 0, 1, 2, 3.
func gemvN4Go(a0, a1, a2, a3 []float64, f *[4]float64, y []float64) {
	f0, f1, f2, f3 := f[0], f[1], f[2], f[3]
	for i := range y {
		v := math.FMA(f0, a0[i], y[i])
		v = math.FMA(f1, a1[i], v)
		v = math.FMA(f2, a2[i], v)
		v = math.FMA(f3, a3[i], v)
		y[i] = v
	}
}

// dger4Go mirrors dger4Asm: ac[i] = fma(f[c], x[i], ac[i]) per column.
func dger4Go(a0, a1, a2, a3 []float64, f *[4]float64, x []float64) {
	f0, f1, f2, f3 := f[0], f[1], f[2], f[3]
	for i, xi := range x {
		a0[i] = math.FMA(f0, xi, a0[i])
		a1[i] = math.FMA(f1, xi, a1[i])
		a2[i] = math.FMA(f2, xi, a2[i])
		a3[i] = math.FMA(f3, xi, a3[i])
	}
}

// dscalKernel computes x *= alpha; plain multiply, so the asm and scalar
// forms are trivially bitwise identical.
func dscalKernel(alpha float64, x []float64) {
	if len(x) == 0 {
		return
	}
	if useAsmKernel {
		dscalAsm(len(x), alpha, &x[0])
		return
	}
	for i := range x {
		x[i] *= alpha
	}
}

// ddotKernel returns xᵀy; callers guarantee len(x) == len(y).
func ddotKernel(x, y []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	if useAsmKernel {
		return ddotAsm(len(x), &x[0], &y[0])
	}
	return ddotGo(x, y)
}

// daxpyKernel computes y[i] = fma(alpha, x[i], y[i]).
func daxpyKernel(alpha float64, x, y []float64) {
	if len(x) == 0 {
		return
	}
	if useAsmKernel {
		daxpyAsm(len(x), alpha, &x[0], &y[0])
		return
	}
	daxpyGo(alpha, x, y)
}

// The four-column kernels take their columns as one slice that starts at
// the first column's head, and the stride to the next: the assembly wants
// no more, and a call per four columns of a short panel is too often to
// cut four slices for it.

// cols4 cuts the four m-element columns out of a.
func cols4(a []float64, lda, m int) (a0, a1, a2, a3 []float64) {
	return a[:m], a[lda : lda+m], a[2*lda : 2*lda+m], a[3*lda : 3*lda+m]
}

// gemvT4Kernel computes out[c] = acᵀx for the four columns of a.
func gemvT4Kernel(a []float64, lda int, x []float64, out *[4]float64) {
	if len(x) == 0 {
		out[0], out[1], out[2], out[3] = 0, 0, 0, 0
		return
	}
	if useAsmKernel {
		_ = a[3*lda+len(x)-1] // the fourth column's last element is there
		dgemvT4Asm(len(x), lda, &a[0], &x[0], out)
		return
	}
	a0, a1, a2, a3 := cols4(a, lda, len(x))
	gemvT4Go(a0, a1, a2, a3, x, out)
}

// gemvN4Kernel computes y += Σ_c f[c]·ac.
func gemvN4Kernel(a []float64, lda int, f *[4]float64, y []float64) {
	if len(y) == 0 {
		return
	}
	if useAsmKernel {
		_ = a[3*lda+len(y)-1]
		dgemvN4Asm(len(y), lda, &a[0], f, &y[0])
		return
	}
	a0, a1, a2, a3 := cols4(a, lda, len(y))
	gemvN4Go(a0, a1, a2, a3, f, y)
}

// dger4Kernel computes ac += f[c]·x for the four columns.
func dger4Kernel(a []float64, lda int, f *[4]float64, x []float64) {
	if len(x) == 0 {
		return
	}
	if useAsmKernel {
		_ = a[3*lda+len(x)-1]
		dger4Asm(len(x), lda, &a[0], f, &x[0])
		return
	}
	a0, a1, a2, a3 := cols4(a, lda, len(x))
	dger4Go(a0, a1, a2, a3, f, x)
}
