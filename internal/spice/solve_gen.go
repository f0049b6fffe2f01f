// Code generated by gen_solve.go; DO NOT EDIT.

package spice

import "math"

// solve3 is SolveWith for 3 unknowns (see gen_solve.go). It leaves
// the factors in ws.fact exactly as the generic factorization would,
// so chord Newton's chordStep reads them unchanged.
func (s *System) solve3(ws *SolveWorkspace) ([]float64, error) {
	A, B := (*[9]float64)(s.A), (*[3]float64)(s.B)
	a00, a01, a02 := A[0], A[1], A[2]
	a10, a11, a12 := A[3], A[4], A[5]
	a20, a21, a22 := A[6], A[7], A[8]
	row0, row1, row2 := 0, 1, 2
	var sc0, sc1, sc2 float64
	var l01, l02, l12 float64
	if m := absMax(absMax(absMax(0.0, a00), a01), a02); m > 0 {
		sc0 = 1 / m
	} else {
		sc0 = 1
	}
	if sc0 != 1 {
		a00, a01, a02 = a00*sc0, a01*sc0, a02*sc0
	}
	if m := absMax(absMax(absMax(0.0, a10), a11), a12); m > 0 {
		sc1 = 1 / m
	} else {
		sc1 = 1
	}
	if sc1 != 1 {
		a10, a11, a12 = a10*sc1, a11*sc1, a12*sc1
	}
	if m := absMax(absMax(absMax(0.0, a20), a21), a22); m > 0 {
		sc2 = 1 / m
	} else {
		sc2 = 1
	}
	if sc2 != 1 {
		a20, a21, a22 = a20*sc2, a21*sc2, a22*sc2
	}
	minPivot, minPivotCol := math.Inf(1), -1
	{
		p, max := 0, math.Abs(a00)
		p, max = pivotMax(p, max, 1, a10)
		p, max = pivotMax(p, max, 2, a20)
		if max < 1e-300 {
			return nil, errZeroPivot(3, max, 0)
		}
		if max < minPivot {
			minPivot, minPivotCol = max, 0
		}
		switch p {
		case 1:
			a00, a10, a01, a11, a02, a12, row0, row1 = a10, a00, a11, a01, a12, a02, row1, row0
		case 2:
			a00, a20, a01, a21, a02, a22, row0, row2 = a20, a00, a21, a01, a22, a02, row2, row0
		}
		pivot := a00
		l01 = a10 / pivot
		if l01 != 0 {
			a11, a12 = a11-l01*a01, a12-l01*a02
		}
		l02 = a20 / pivot
		if l02 != 0 {
			a21, a22 = a21-l02*a01, a22-l02*a02
		}
	}
	{
		p, max := 1, math.Abs(a11)
		p, max = pivotMax(p, max, 2, a21)
		if max < 1e-300 {
			return nil, errZeroPivot(3, max, 1)
		}
		if max < minPivot {
			minPivot, minPivotCol = max, 1
		}
		switch p {
		case 2:
			a11, a21, a12, a22, row1, row2, l02, l01 = a21, a11, a22, a12, row2, row1, l01, l02
		}
		pivot := a11
		l12 = a21 / pivot
		if l12 != 0 {
			a22 = a22 - l12*a12
		}
	}
	{
		max := math.Abs(a22)
		if max < 1e-300 {
			return nil, errZeroPivot(3, max, 2)
		}
		if max < minPivot {
			minPivot, minPivotCol = max, 2
		}
	}
	f := &ws.fact
	f.n, f.a = 3, ws.af
	f.minPivot, f.minPivotCol = minPivot, minPivotCol
	U, L := (*[9]float64)(ws.af), (*[9]float64)(f.l)
	U[0], U[1], U[2], L[1], L[2] = a00, a01, a02, l01, l02
	U[4], U[5], L[5] = a11, a12, l12
	U[8] = a22
	perm, scale := (*[3]int)(f.perm), (*[3]float64)(f.scale)
	*perm, *scale = [3]int{row0, row1, row2}, [3]float64{sc0, sc1, sc2}
	sp0, sp1, sp2 := scale[row0], scale[row1], scale[row2]
	var x0, x1, x2 float64
	{
		y0, y1, y2 := B[row0]*sp0, B[row1]*sp1, B[row2]*sp2
		if l01 != 0 {
			y1 -= l01 * y0
		}
		if l02 != 0 {
			y2 -= l02 * y0
		}
		if l12 != 0 {
			y2 -= l12 * y1
		}
		x2 = y2 / a22
		x1 = (y1 - a12*x2) / a11
		x0 = (y0 - a01*x1 - a02*x2) / a00
	}
	{
		var r [3]float64
		r[0] = B[0] - A[0]*x0 - A[1]*x1 - A[2]*x2
		r[1] = B[1] - A[3]*x0 - A[4]*x1 - A[5]*x2
		r[2] = B[2] - A[6]*x0 - A[7]*x1 - A[8]*x2
		var d0, d1, d2 float64
		y0, y1, y2 := r[row0]*sp0, r[row1]*sp1, r[row2]*sp2
		if l01 != 0 {
			y1 -= l01 * y0
		}
		if l02 != 0 {
			y2 -= l02 * y0
		}
		if l12 != 0 {
			y2 -= l12 * y1
		}
		d2 = y2 / a22
		d1 = (y1 - a12*d2) / a11
		d0 = (y0 - a01*d1 - a02*d2) / a00
		x0, x1, x2 = x0+d0, x1+d1, x2+d2
	}
	{
		var r [3]float64
		r[0] = B[0] - A[0]*x0 - A[1]*x1 - A[2]*x2
		r[1] = B[1] - A[3]*x0 - A[4]*x1 - A[5]*x2
		r[2] = B[2] - A[6]*x0 - A[7]*x1 - A[8]*x2
		var d0, d1, d2 float64
		y0, y1, y2 := r[row0]*sp0, r[row1]*sp1, r[row2]*sp2
		if l01 != 0 {
			y1 -= l01 * y0
		}
		if l02 != 0 {
			y2 -= l02 * y0
		}
		if l12 != 0 {
			y2 -= l12 * y1
		}
		d2 = y2 / a22
		d1 = (y1 - a12*d2) / a11
		d0 = (y0 - a01*d1 - a02*d2) / a00
		x0, x1, x2 = x0+d0, x1+d1, x2+d2
	}
	for _, v := range [...]float64{x0, x1, x2} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, errNonFinite(3, minPivot, minPivotCol)
		}
	}
	*(*[3]float64)(ws.x) = [3]float64{x0, x1, x2}
	return ws.x, nil
}

// solve6 is SolveWith for 6 unknowns (see gen_solve.go). It leaves
// the factors in ws.fact exactly as the generic factorization would,
// so chord Newton's chordStep reads them unchanged.
func (s *System) solve6(ws *SolveWorkspace) ([]float64, error) {
	A, B := (*[36]float64)(s.A), (*[6]float64)(s.B)
	a00, a01, a02, a03, a04, a05 := A[0], A[1], A[2], A[3], A[4], A[5]
	a10, a11, a12, a13, a14, a15 := A[6], A[7], A[8], A[9], A[10], A[11]
	a20, a21, a22, a23, a24, a25 := A[12], A[13], A[14], A[15], A[16], A[17]
	a30, a31, a32, a33, a34, a35 := A[18], A[19], A[20], A[21], A[22], A[23]
	a40, a41, a42, a43, a44, a45 := A[24], A[25], A[26], A[27], A[28], A[29]
	a50, a51, a52, a53, a54, a55 := A[30], A[31], A[32], A[33], A[34], A[35]
	row0, row1, row2, row3, row4, row5 := 0, 1, 2, 3, 4, 5
	var sc0, sc1, sc2, sc3, sc4, sc5 float64
	var l01, l02, l03, l04, l05, l12, l13, l14, l15, l23, l24, l25, l34, l35, l45 float64
	if m := absMax(absMax(absMax(absMax(absMax(absMax(0.0, a00), a01), a02), a03), a04), a05); m > 0 {
		sc0 = 1 / m
	} else {
		sc0 = 1
	}
	if sc0 != 1 {
		a00, a01, a02, a03, a04, a05 = a00*sc0, a01*sc0, a02*sc0, a03*sc0, a04*sc0, a05*sc0
	}
	if m := absMax(absMax(absMax(absMax(absMax(absMax(0.0, a10), a11), a12), a13), a14), a15); m > 0 {
		sc1 = 1 / m
	} else {
		sc1 = 1
	}
	if sc1 != 1 {
		a10, a11, a12, a13, a14, a15 = a10*sc1, a11*sc1, a12*sc1, a13*sc1, a14*sc1, a15*sc1
	}
	if m := absMax(absMax(absMax(absMax(absMax(absMax(0.0, a20), a21), a22), a23), a24), a25); m > 0 {
		sc2 = 1 / m
	} else {
		sc2 = 1
	}
	if sc2 != 1 {
		a20, a21, a22, a23, a24, a25 = a20*sc2, a21*sc2, a22*sc2, a23*sc2, a24*sc2, a25*sc2
	}
	if m := absMax(absMax(absMax(absMax(absMax(absMax(0.0, a30), a31), a32), a33), a34), a35); m > 0 {
		sc3 = 1 / m
	} else {
		sc3 = 1
	}
	if sc3 != 1 {
		a30, a31, a32, a33, a34, a35 = a30*sc3, a31*sc3, a32*sc3, a33*sc3, a34*sc3, a35*sc3
	}
	if m := absMax(absMax(absMax(absMax(absMax(absMax(0.0, a40), a41), a42), a43), a44), a45); m > 0 {
		sc4 = 1 / m
	} else {
		sc4 = 1
	}
	if sc4 != 1 {
		a40, a41, a42, a43, a44, a45 = a40*sc4, a41*sc4, a42*sc4, a43*sc4, a44*sc4, a45*sc4
	}
	if m := absMax(absMax(absMax(absMax(absMax(absMax(0.0, a50), a51), a52), a53), a54), a55); m > 0 {
		sc5 = 1 / m
	} else {
		sc5 = 1
	}
	if sc5 != 1 {
		a50, a51, a52, a53, a54, a55 = a50*sc5, a51*sc5, a52*sc5, a53*sc5, a54*sc5, a55*sc5
	}
	minPivot, minPivotCol := math.Inf(1), -1
	{
		p, max := 0, math.Abs(a00)
		p, max = pivotMax(p, max, 1, a10)
		p, max = pivotMax(p, max, 2, a20)
		p, max = pivotMax(p, max, 3, a30)
		p, max = pivotMax(p, max, 4, a40)
		p, max = pivotMax(p, max, 5, a50)
		if max < 1e-300 {
			return nil, errZeroPivot(6, max, 0)
		}
		if max < minPivot {
			minPivot, minPivotCol = max, 0
		}
		switch p {
		case 1:
			a00, a10, a01, a11, a02, a12, a03, a13, a04, a14, a05, a15, row0, row1 = a10, a00, a11, a01, a12, a02, a13, a03, a14, a04, a15, a05, row1, row0
		case 2:
			a00, a20, a01, a21, a02, a22, a03, a23, a04, a24, a05, a25, row0, row2 = a20, a00, a21, a01, a22, a02, a23, a03, a24, a04, a25, a05, row2, row0
		case 3:
			a00, a30, a01, a31, a02, a32, a03, a33, a04, a34, a05, a35, row0, row3 = a30, a00, a31, a01, a32, a02, a33, a03, a34, a04, a35, a05, row3, row0
		case 4:
			a00, a40, a01, a41, a02, a42, a03, a43, a04, a44, a05, a45, row0, row4 = a40, a00, a41, a01, a42, a02, a43, a03, a44, a04, a45, a05, row4, row0
		case 5:
			a00, a50, a01, a51, a02, a52, a03, a53, a04, a54, a05, a55, row0, row5 = a50, a00, a51, a01, a52, a02, a53, a03, a54, a04, a55, a05, row5, row0
		}
		pivot := a00
		l01 = a10 / pivot
		if l01 != 0 {
			a11, a12, a13, a14, a15 = a11-l01*a01, a12-l01*a02, a13-l01*a03, a14-l01*a04, a15-l01*a05
		}
		l02 = a20 / pivot
		if l02 != 0 {
			a21, a22, a23, a24, a25 = a21-l02*a01, a22-l02*a02, a23-l02*a03, a24-l02*a04, a25-l02*a05
		}
		l03 = a30 / pivot
		if l03 != 0 {
			a31, a32, a33, a34, a35 = a31-l03*a01, a32-l03*a02, a33-l03*a03, a34-l03*a04, a35-l03*a05
		}
		l04 = a40 / pivot
		if l04 != 0 {
			a41, a42, a43, a44, a45 = a41-l04*a01, a42-l04*a02, a43-l04*a03, a44-l04*a04, a45-l04*a05
		}
		l05 = a50 / pivot
		if l05 != 0 {
			a51, a52, a53, a54, a55 = a51-l05*a01, a52-l05*a02, a53-l05*a03, a54-l05*a04, a55-l05*a05
		}
	}
	{
		p, max := 1, math.Abs(a11)
		p, max = pivotMax(p, max, 2, a21)
		p, max = pivotMax(p, max, 3, a31)
		p, max = pivotMax(p, max, 4, a41)
		p, max = pivotMax(p, max, 5, a51)
		if max < 1e-300 {
			return nil, errZeroPivot(6, max, 1)
		}
		if max < minPivot {
			minPivot, minPivotCol = max, 1
		}
		switch p {
		case 2:
			a11, a21, a12, a22, a13, a23, a14, a24, a15, a25, row1, row2, l02, l01 = a21, a11, a22, a12, a23, a13, a24, a14, a25, a15, row2, row1, l01, l02
		case 3:
			a11, a31, a12, a32, a13, a33, a14, a34, a15, a35, row1, row3, l03, l01 = a31, a11, a32, a12, a33, a13, a34, a14, a35, a15, row3, row1, l01, l03
		case 4:
			a11, a41, a12, a42, a13, a43, a14, a44, a15, a45, row1, row4, l04, l01 = a41, a11, a42, a12, a43, a13, a44, a14, a45, a15, row4, row1, l01, l04
		case 5:
			a11, a51, a12, a52, a13, a53, a14, a54, a15, a55, row1, row5, l05, l01 = a51, a11, a52, a12, a53, a13, a54, a14, a55, a15, row5, row1, l01, l05
		}
		pivot := a11
		l12 = a21 / pivot
		if l12 != 0 {
			a22, a23, a24, a25 = a22-l12*a12, a23-l12*a13, a24-l12*a14, a25-l12*a15
		}
		l13 = a31 / pivot
		if l13 != 0 {
			a32, a33, a34, a35 = a32-l13*a12, a33-l13*a13, a34-l13*a14, a35-l13*a15
		}
		l14 = a41 / pivot
		if l14 != 0 {
			a42, a43, a44, a45 = a42-l14*a12, a43-l14*a13, a44-l14*a14, a45-l14*a15
		}
		l15 = a51 / pivot
		if l15 != 0 {
			a52, a53, a54, a55 = a52-l15*a12, a53-l15*a13, a54-l15*a14, a55-l15*a15
		}
	}
	{
		p, max := 2, math.Abs(a22)
		p, max = pivotMax(p, max, 3, a32)
		p, max = pivotMax(p, max, 4, a42)
		p, max = pivotMax(p, max, 5, a52)
		if max < 1e-300 {
			return nil, errZeroPivot(6, max, 2)
		}
		if max < minPivot {
			minPivot, minPivotCol = max, 2
		}
		switch p {
		case 3:
			a22, a32, a23, a33, a24, a34, a25, a35, row2, row3, l03, l02, l13, l12 = a32, a22, a33, a23, a34, a24, a35, a25, row3, row2, l02, l03, l12, l13
		case 4:
			a22, a42, a23, a43, a24, a44, a25, a45, row2, row4, l04, l02, l14, l12 = a42, a22, a43, a23, a44, a24, a45, a25, row4, row2, l02, l04, l12, l14
		case 5:
			a22, a52, a23, a53, a24, a54, a25, a55, row2, row5, l05, l02, l15, l12 = a52, a22, a53, a23, a54, a24, a55, a25, row5, row2, l02, l05, l12, l15
		}
		pivot := a22
		l23 = a32 / pivot
		if l23 != 0 {
			a33, a34, a35 = a33-l23*a23, a34-l23*a24, a35-l23*a25
		}
		l24 = a42 / pivot
		if l24 != 0 {
			a43, a44, a45 = a43-l24*a23, a44-l24*a24, a45-l24*a25
		}
		l25 = a52 / pivot
		if l25 != 0 {
			a53, a54, a55 = a53-l25*a23, a54-l25*a24, a55-l25*a25
		}
	}
	{
		p, max := 3, math.Abs(a33)
		p, max = pivotMax(p, max, 4, a43)
		p, max = pivotMax(p, max, 5, a53)
		if max < 1e-300 {
			return nil, errZeroPivot(6, max, 3)
		}
		if max < minPivot {
			minPivot, minPivotCol = max, 3
		}
		switch p {
		case 4:
			a33, a43, a34, a44, a35, a45, row3, row4, l04, l03, l14, l13, l24, l23 = a43, a33, a44, a34, a45, a35, row4, row3, l03, l04, l13, l14, l23, l24
		case 5:
			a33, a53, a34, a54, a35, a55, row3, row5, l05, l03, l15, l13, l25, l23 = a53, a33, a54, a34, a55, a35, row5, row3, l03, l05, l13, l15, l23, l25
		}
		pivot := a33
		l34 = a43 / pivot
		if l34 != 0 {
			a44, a45 = a44-l34*a34, a45-l34*a35
		}
		l35 = a53 / pivot
		if l35 != 0 {
			a54, a55 = a54-l35*a34, a55-l35*a35
		}
	}
	{
		p, max := 4, math.Abs(a44)
		p, max = pivotMax(p, max, 5, a54)
		if max < 1e-300 {
			return nil, errZeroPivot(6, max, 4)
		}
		if max < minPivot {
			minPivot, minPivotCol = max, 4
		}
		switch p {
		case 5:
			a44, a54, a45, a55, row4, row5, l05, l04, l15, l14, l25, l24, l35, l34 = a54, a44, a55, a45, row5, row4, l04, l05, l14, l15, l24, l25, l34, l35
		}
		pivot := a44
		l45 = a54 / pivot
		if l45 != 0 {
			a55 = a55 - l45*a45
		}
	}
	{
		max := math.Abs(a55)
		if max < 1e-300 {
			return nil, errZeroPivot(6, max, 5)
		}
		if max < minPivot {
			minPivot, minPivotCol = max, 5
		}
	}
	f := &ws.fact
	f.n, f.a = 6, ws.af
	f.minPivot, f.minPivotCol = minPivot, minPivotCol
	U, L := (*[36]float64)(ws.af), (*[36]float64)(f.l)
	U[0], U[1], U[2], U[3], U[4], U[5], L[1], L[2], L[3], L[4], L[5] = a00, a01, a02, a03, a04, a05, l01, l02, l03, l04, l05
	U[7], U[8], U[9], U[10], U[11], L[8], L[9], L[10], L[11] = a11, a12, a13, a14, a15, l12, l13, l14, l15
	U[14], U[15], U[16], U[17], L[15], L[16], L[17] = a22, a23, a24, a25, l23, l24, l25
	U[21], U[22], U[23], L[22], L[23] = a33, a34, a35, l34, l35
	U[28], U[29], L[29] = a44, a45, l45
	U[35] = a55
	perm, scale := (*[6]int)(f.perm), (*[6]float64)(f.scale)
	*perm, *scale = [6]int{row0, row1, row2, row3, row4, row5}, [6]float64{sc0, sc1, sc2, sc3, sc4, sc5}
	sp0, sp1, sp2, sp3, sp4, sp5 := scale[row0], scale[row1], scale[row2], scale[row3], scale[row4], scale[row5]
	var x0, x1, x2, x3, x4, x5 float64
	{
		y0, y1, y2, y3, y4, y5 := B[row0]*sp0, B[row1]*sp1, B[row2]*sp2, B[row3]*sp3, B[row4]*sp4, B[row5]*sp5
		if l01 != 0 {
			y1 -= l01 * y0
		}
		if l02 != 0 {
			y2 -= l02 * y0
		}
		if l03 != 0 {
			y3 -= l03 * y0
		}
		if l04 != 0 {
			y4 -= l04 * y0
		}
		if l05 != 0 {
			y5 -= l05 * y0
		}
		if l12 != 0 {
			y2 -= l12 * y1
		}
		if l13 != 0 {
			y3 -= l13 * y1
		}
		if l14 != 0 {
			y4 -= l14 * y1
		}
		if l15 != 0 {
			y5 -= l15 * y1
		}
		if l23 != 0 {
			y3 -= l23 * y2
		}
		if l24 != 0 {
			y4 -= l24 * y2
		}
		if l25 != 0 {
			y5 -= l25 * y2
		}
		if l34 != 0 {
			y4 -= l34 * y3
		}
		if l35 != 0 {
			y5 -= l35 * y3
		}
		if l45 != 0 {
			y5 -= l45 * y4
		}
		x5 = y5 / a55
		x4 = (y4 - a45*x5) / a44
		x3 = (y3 - a34*x4 - a35*x5) / a33
		x2 = (y2 - a23*x3 - a24*x4 - a25*x5) / a22
		x1 = (y1 - a12*x2 - a13*x3 - a14*x4 - a15*x5) / a11
		x0 = (y0 - a01*x1 - a02*x2 - a03*x3 - a04*x4 - a05*x5) / a00
	}
	{
		var r [6]float64
		r[0] = B[0] - A[0]*x0 - A[1]*x1 - A[2]*x2 - A[3]*x3 - A[4]*x4 - A[5]*x5
		r[1] = B[1] - A[6]*x0 - A[7]*x1 - A[8]*x2 - A[9]*x3 - A[10]*x4 - A[11]*x5
		r[2] = B[2] - A[12]*x0 - A[13]*x1 - A[14]*x2 - A[15]*x3 - A[16]*x4 - A[17]*x5
		r[3] = B[3] - A[18]*x0 - A[19]*x1 - A[20]*x2 - A[21]*x3 - A[22]*x4 - A[23]*x5
		r[4] = B[4] - A[24]*x0 - A[25]*x1 - A[26]*x2 - A[27]*x3 - A[28]*x4 - A[29]*x5
		r[5] = B[5] - A[30]*x0 - A[31]*x1 - A[32]*x2 - A[33]*x3 - A[34]*x4 - A[35]*x5
		var d0, d1, d2, d3, d4, d5 float64
		y0, y1, y2, y3, y4, y5 := r[row0]*sp0, r[row1]*sp1, r[row2]*sp2, r[row3]*sp3, r[row4]*sp4, r[row5]*sp5
		if l01 != 0 {
			y1 -= l01 * y0
		}
		if l02 != 0 {
			y2 -= l02 * y0
		}
		if l03 != 0 {
			y3 -= l03 * y0
		}
		if l04 != 0 {
			y4 -= l04 * y0
		}
		if l05 != 0 {
			y5 -= l05 * y0
		}
		if l12 != 0 {
			y2 -= l12 * y1
		}
		if l13 != 0 {
			y3 -= l13 * y1
		}
		if l14 != 0 {
			y4 -= l14 * y1
		}
		if l15 != 0 {
			y5 -= l15 * y1
		}
		if l23 != 0 {
			y3 -= l23 * y2
		}
		if l24 != 0 {
			y4 -= l24 * y2
		}
		if l25 != 0 {
			y5 -= l25 * y2
		}
		if l34 != 0 {
			y4 -= l34 * y3
		}
		if l35 != 0 {
			y5 -= l35 * y3
		}
		if l45 != 0 {
			y5 -= l45 * y4
		}
		d5 = y5 / a55
		d4 = (y4 - a45*d5) / a44
		d3 = (y3 - a34*d4 - a35*d5) / a33
		d2 = (y2 - a23*d3 - a24*d4 - a25*d5) / a22
		d1 = (y1 - a12*d2 - a13*d3 - a14*d4 - a15*d5) / a11
		d0 = (y0 - a01*d1 - a02*d2 - a03*d3 - a04*d4 - a05*d5) / a00
		x0, x1, x2, x3, x4, x5 = x0+d0, x1+d1, x2+d2, x3+d3, x4+d4, x5+d5
	}
	{
		var r [6]float64
		r[0] = B[0] - A[0]*x0 - A[1]*x1 - A[2]*x2 - A[3]*x3 - A[4]*x4 - A[5]*x5
		r[1] = B[1] - A[6]*x0 - A[7]*x1 - A[8]*x2 - A[9]*x3 - A[10]*x4 - A[11]*x5
		r[2] = B[2] - A[12]*x0 - A[13]*x1 - A[14]*x2 - A[15]*x3 - A[16]*x4 - A[17]*x5
		r[3] = B[3] - A[18]*x0 - A[19]*x1 - A[20]*x2 - A[21]*x3 - A[22]*x4 - A[23]*x5
		r[4] = B[4] - A[24]*x0 - A[25]*x1 - A[26]*x2 - A[27]*x3 - A[28]*x4 - A[29]*x5
		r[5] = B[5] - A[30]*x0 - A[31]*x1 - A[32]*x2 - A[33]*x3 - A[34]*x4 - A[35]*x5
		var d0, d1, d2, d3, d4, d5 float64
		y0, y1, y2, y3, y4, y5 := r[row0]*sp0, r[row1]*sp1, r[row2]*sp2, r[row3]*sp3, r[row4]*sp4, r[row5]*sp5
		if l01 != 0 {
			y1 -= l01 * y0
		}
		if l02 != 0 {
			y2 -= l02 * y0
		}
		if l03 != 0 {
			y3 -= l03 * y0
		}
		if l04 != 0 {
			y4 -= l04 * y0
		}
		if l05 != 0 {
			y5 -= l05 * y0
		}
		if l12 != 0 {
			y2 -= l12 * y1
		}
		if l13 != 0 {
			y3 -= l13 * y1
		}
		if l14 != 0 {
			y4 -= l14 * y1
		}
		if l15 != 0 {
			y5 -= l15 * y1
		}
		if l23 != 0 {
			y3 -= l23 * y2
		}
		if l24 != 0 {
			y4 -= l24 * y2
		}
		if l25 != 0 {
			y5 -= l25 * y2
		}
		if l34 != 0 {
			y4 -= l34 * y3
		}
		if l35 != 0 {
			y5 -= l35 * y3
		}
		if l45 != 0 {
			y5 -= l45 * y4
		}
		d5 = y5 / a55
		d4 = (y4 - a45*d5) / a44
		d3 = (y3 - a34*d4 - a35*d5) / a33
		d2 = (y2 - a23*d3 - a24*d4 - a25*d5) / a22
		d1 = (y1 - a12*d2 - a13*d3 - a14*d4 - a15*d5) / a11
		d0 = (y0 - a01*d1 - a02*d2 - a03*d3 - a04*d4 - a05*d5) / a00
		x0, x1, x2, x3, x4, x5 = x0+d0, x1+d1, x2+d2, x3+d3, x4+d4, x5+d5
	}
	for _, v := range [...]float64{x0, x1, x2, x3, x4, x5} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, errNonFinite(6, minPivot, minPivotCol)
		}
	}
	*(*[6]float64)(ws.x) = [6]float64{x0, x1, x2, x3, x4, x5}
	return ws.x, nil
}

// solve6Stage is solve6 for the sparsity pattern and pivot order of a
// two-input MCSM stage's system (see gen_solve.go): unknowns 0-2 are
// the input A, input B and output nodes, 3-4 the two input sources'
// branch currents and 5 the cell's internal node VN.
// The pattern's rows ('X' where an entry may be nonzero), and the
// pivot rows by column:
//
//	X.XX.X  .XX.XX  XXX..X  X.....  .X....  XXX..X
//	3 4 2 0 1 5
//
// It performs those operations of solve6 whose operands are not
// structural zeros, in the same order, and leaves the same factors in
// ws.fact. It reports false, leaving ws untouched, when an entry off the
// pattern is not +0, a row scale is not finite, a value that a skipped
// subtraction would touch is −0, a pivot is not the listed row or is
// below 1e-300, or the solution is not finite: solve6 then decides.
func (s *System) solve6Stage(ws *SolveWorkspace) ([]float64, bool) {
	A, B := (*[36]float64)(s.A), (*[6]float64)(s.B)
	if math.Float64bits(A[1])|math.Float64bits(A[4])|math.Float64bits(A[6])|math.Float64bits(A[9])|math.Float64bits(A[15])|math.Float64bits(A[16])|math.Float64bits(A[19])|math.Float64bits(A[20])|math.Float64bits(A[21])|math.Float64bits(A[22])|math.Float64bits(A[23])|math.Float64bits(A[24])|math.Float64bits(A[26])|math.Float64bits(A[27])|math.Float64bits(A[28])|math.Float64bits(A[29])|math.Float64bits(A[33])|math.Float64bits(A[34]) != 0 {
		return nil, false
	}
	if negZero(B[0]) || negZero(B[1]) || negZero(B[2]) || negZero(B[3]) || negZero(B[4]) || negZero(B[5]) {
		return nil, false
	}
	a00, a02, a03, a05 := A[0], A[2], A[3], A[5]
	a11, a12, a14, a15 := A[7], A[8], A[10], A[11]
	a20, a21, a22, a25 := A[12], A[13], A[14], A[17]
	a30 := A[18]
	a41 := A[25]
	a50, a51, a52, a55 := A[30], A[31], A[32], A[35]
	var l00, l02, l05, l11, l12, l15, l20, l21, l25 float64
	var sc0, sc1, sc2, sc3, sc4, sc5 float64
	if m := absMax(absMax(absMax(absMax(0.0, a00), a02), a03), a05); m > 0 {
		sc0 = 1 / m
	} else {
		sc0 = 1
	}
	if sc0 != 1 {
		a00, a02, a03, a05 = a00*sc0, a02*sc0, a03*sc0, a05*sc0
	}
	if m := absMax(absMax(absMax(absMax(0.0, a11), a12), a14), a15); m > 0 {
		sc1 = 1 / m
	} else {
		sc1 = 1
	}
	if sc1 != 1 {
		a11, a12, a14, a15 = a11*sc1, a12*sc1, a14*sc1, a15*sc1
	}
	if m := absMax(absMax(absMax(absMax(0.0, a20), a21), a22), a25); m > 0 {
		sc2 = 1 / m
	} else {
		sc2 = 1
	}
	if sc2 != 1 {
		a20, a21, a22, a25 = a20*sc2, a21*sc2, a22*sc2, a25*sc2
	}
	if m := absMax(0.0, a30); m > 0 {
		sc3 = 1 / m
	} else {
		sc3 = 1
	}
	if sc3 != 1 {
		a30 = a30 * sc3
	}
	if m := absMax(0.0, a41); m > 0 {
		sc4 = 1 / m
	} else {
		sc4 = 1
	}
	if sc4 != 1 {
		a41 = a41 * sc4
	}
	if m := absMax(absMax(absMax(absMax(0.0, a50), a51), a52), a55); m > 0 {
		sc5 = 1 / m
	} else {
		sc5 = 1
	}
	if sc5 != 1 {
		a50, a51, a52, a55 = a50*sc5, a51*sc5, a52*sc5, a55*sc5
	}
	if sc0 > math.MaxFloat64 || sc1 > math.MaxFloat64 || sc2 > math.MaxFloat64 || sc3 > math.MaxFloat64 || sc4 > math.MaxFloat64 || sc5 > math.MaxFloat64 {
		return nil, false
	}
	if negZero(a02) || negZero(a03) || negZero(a05) || negZero(a12) || negZero(a14) || negZero(a15) || negZero(a21) || negZero(a22) || negZero(a25) || negZero(a51) || negZero(a52) || negZero(a55) {
		return nil, false
	}
	minPivot, minPivotCol := math.Inf(1), -1
	{
		p, max := 0, math.Abs(a00)
		p, max = pivotMax(p, max, 2, a20)
		p, max = pivotMax(p, max, 3, a30)
		p, max = pivotMax(p, max, 5, a50)
		if p != 3 || max < 1e-300 {
			return nil, false
		}
		if max < minPivot {
			minPivot, minPivotCol = max, 0
		}
		l02 = a20 / a30
		l00 = a00 / a30
		l05 = a50 / a30
	}
	{
		p, max := 1, math.Abs(a11)
		p, max = pivotMax(p, max, 2, a21)
		p, max = pivotMax(p, max, 4, a41)
		p, max = pivotMax(p, max, 5, a51)
		if p != 4 || max < 1e-300 {
			return nil, false
		}
		if max < minPivot {
			minPivot, minPivotCol = max, 1
		}
		l12 = a21 / a41
		l11 = a11 / a41
		l15 = a51 / a41
	}
	{
		p, max := 2, math.Abs(a22)
		p, max = pivotMax(p, max, 3, a02)
		p, max = pivotMax(p, max, 4, a12)
		p, max = pivotMax(p, max, 5, a52)
		if p != 2 || max < 1e-300 {
			return nil, false
		}
		if max < minPivot {
			minPivot, minPivotCol = max, 2
		}
		l20 = a02 / a22
		if l20 != 0 {
			a05 = a05 - l20*a25
		}
		l21 = a12 / a22
		if l21 != 0 {
			a15 = a15 - l21*a25
		}
		l25 = a52 / a22
		if l25 != 0 {
			a55 = a55 - l25*a25
		}
	}
	{
		max := math.Abs(a03)
		if max < 1e-300 {
			return nil, false
		}
		if max < minPivot {
			minPivot, minPivotCol = max, 3
		}
	}
	{
		max := math.Abs(a14)
		if max < 1e-300 {
			return nil, false
		}
		if max < minPivot {
			minPivot, minPivotCol = max, 4
		}
	}
	{
		max := math.Abs(a55)
		if max < 1e-300 {
			return nil, false
		}
		if max < minPivot {
			minPivot, minPivotCol = max, 5
		}
	}
	var x0, x1, x2, x3, x4, x5 float64
	{
		y0, y1, y2, y3, y4, y5 := B[3]*sc3, B[4]*sc4, B[2]*sc2, B[0]*sc0, B[1]*sc1, B[5]*sc5
		if negZero(y0) || negZero(y1) || negZero(y2) || negZero(y3) {
			return nil, false
		}
		if l02 != 0 {
			y2 -= l02 * y0
		}
		if l00 != 0 {
			y3 -= l00 * y0
		}
		if l05 != 0 {
			y5 -= l05 * y0
		}
		if l12 != 0 {
			y2 -= l12 * y1
		}
		if l11 != 0 {
			y4 -= l11 * y1
		}
		if l15 != 0 {
			y5 -= l15 * y1
		}
		if l20 != 0 {
			y3 -= l20 * y2
		}
		if l21 != 0 {
			y4 -= l21 * y2
		}
		if l25 != 0 {
			y5 -= l25 * y2
		}
		x5 = y5 / a55
		x4 = (y4 - a15*x5) / a14
		x3 = (y3 - a05*x5) / a03
		x2 = (y2 - a25*x5) / a22
		x1 = y1 / a41
		x0 = y0 / a30
	}
	{
		r0 := B[0] - A[0]*x0 - A[2]*x2 - A[3]*x3 - A[5]*x5
		r1 := B[1] - A[7]*x1 - A[8]*x2 - A[10]*x4 - A[11]*x5
		r2 := B[2] - A[12]*x0 - A[13]*x1 - A[14]*x2 - A[17]*x5
		r3 := B[3] - A[18]*x0
		r4 := B[4] - A[25]*x1
		r5 := B[5] - A[30]*x0 - A[31]*x1 - A[32]*x2 - A[35]*x5
		var d0, d1, d2, d3, d4, d5 float64
		y0, y1, y2, y3, y4, y5 := r3*sc3, r4*sc4, r2*sc2, r0*sc0, r1*sc1, r5*sc5
		if negZero(y0) || negZero(y1) || negZero(y2) || negZero(y3) {
			return nil, false
		}
		if l02 != 0 {
			y2 -= l02 * y0
		}
		if l00 != 0 {
			y3 -= l00 * y0
		}
		if l05 != 0 {
			y5 -= l05 * y0
		}
		if l12 != 0 {
			y2 -= l12 * y1
		}
		if l11 != 0 {
			y4 -= l11 * y1
		}
		if l15 != 0 {
			y5 -= l15 * y1
		}
		if l20 != 0 {
			y3 -= l20 * y2
		}
		if l21 != 0 {
			y4 -= l21 * y2
		}
		if l25 != 0 {
			y5 -= l25 * y2
		}
		d5 = y5 / a55
		d4 = (y4 - a15*d5) / a14
		d3 = (y3 - a05*d5) / a03
		d2 = (y2 - a25*d5) / a22
		d1 = y1 / a41
		d0 = y0 / a30
		x0, x1, x2, x3, x4, x5 = x0+d0, x1+d1, x2+d2, x3+d3, x4+d4, x5+d5
	}
	{
		r0 := B[0] - A[0]*x0 - A[2]*x2 - A[3]*x3 - A[5]*x5
		r1 := B[1] - A[7]*x1 - A[8]*x2 - A[10]*x4 - A[11]*x5
		r2 := B[2] - A[12]*x0 - A[13]*x1 - A[14]*x2 - A[17]*x5
		r3 := B[3] - A[18]*x0
		r4 := B[4] - A[25]*x1
		r5 := B[5] - A[30]*x0 - A[31]*x1 - A[32]*x2 - A[35]*x5
		var d0, d1, d2, d3, d4, d5 float64
		y0, y1, y2, y3, y4, y5 := r3*sc3, r4*sc4, r2*sc2, r0*sc0, r1*sc1, r5*sc5
		if negZero(y0) || negZero(y1) || negZero(y2) || negZero(y3) {
			return nil, false
		}
		if l02 != 0 {
			y2 -= l02 * y0
		}
		if l00 != 0 {
			y3 -= l00 * y0
		}
		if l05 != 0 {
			y5 -= l05 * y0
		}
		if l12 != 0 {
			y2 -= l12 * y1
		}
		if l11 != 0 {
			y4 -= l11 * y1
		}
		if l15 != 0 {
			y5 -= l15 * y1
		}
		if l20 != 0 {
			y3 -= l20 * y2
		}
		if l21 != 0 {
			y4 -= l21 * y2
		}
		if l25 != 0 {
			y5 -= l25 * y2
		}
		d5 = y5 / a55
		d4 = (y4 - a15*d5) / a14
		d3 = (y3 - a05*d5) / a03
		d2 = (y2 - a25*d5) / a22
		d1 = y1 / a41
		d0 = y0 / a30
		x0, x1, x2, x3, x4, x5 = x0+d0, x1+d1, x2+d2, x3+d3, x4+d4, x5+d5
	}
	for _, v := range [...]float64{x0, x1, x2, x3, x4, x5} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, false
		}
	}
	f := &ws.fact
	f.n, f.a = 6, ws.af
	f.minPivot, f.minPivotCol = minPivot, minPivotCol
	U, L := (*[36]float64)(ws.af), (*[36]float64)(f.l)
	U[0], U[1], U[2], U[3], U[4], U[5], L[1], L[2], L[3], L[4], L[5] = a30, 0, 0, 0, 0, 0, math.Copysign(0, a30), l02, l00, math.Copysign(0, a30), l05
	U[7], U[8], U[9], U[10], U[11], L[8], L[9], L[10], L[11] = a41, 0, 0, 0, 0, l12, math.Copysign(0, a41), l11, l15
	U[14], U[15], U[16], U[17], L[15], L[16], L[17] = a22, 0, 0, a25, l20, l21, l25
	U[21], U[22], U[23], L[22], L[23] = a03, 0, a05, math.Copysign(0, a03), math.Copysign(0, a03)
	U[28], U[29], L[29] = a14, a15, math.Copysign(0, a14)
	U[35] = a55
	perm, scale := (*[6]int)(f.perm), (*[6]float64)(f.scale)
	*perm, *scale = [6]int{3, 4, 2, 0, 1, 5}, [6]float64{sc0, sc1, sc2, sc3, sc4, sc5}
	*(*[6]float64)(ws.x) = [6]float64{x0, x1, x2, x3, x4, x5}
	return ws.x, true
}

// negZero reports whether v is −0.
func negZero(v float64) bool { return math.Float64bits(v) == 1<<63 }

// absMax returns the larger of m and |v|, keeping m when v is NaN: the
// generic factorization's row-maximum step.
func absMax(m, v float64) float64 {
	if a := math.Abs(v); a > m {
		return a
	}
	return m
}

// pivotMax is one step of the generic pivot search: row r replaces the
// candidate p only when its magnitude is strictly larger.
func pivotMax(p int, max float64, r int, v float64) (int, float64) {
	if a := math.Abs(v); a > max {
		return r, a
	}
	return p, max
}
