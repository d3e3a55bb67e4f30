package linalg

import "math"

// tred2Ref is the column-walking EISPACK tred2 that tred2 replaced, kept
// verbatim as the bitwise oracle for it: TestTred2MatchesReference and
// FuzzTred2MatchesReference require the same d, e and Q to the last bit.
func tred2Ref(a [][]float64, d, e []float64, wantV bool) {
	n := len(a)
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		var h, scale float64
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(a[i][k])
			}
			if EqZero(scale) {
				e[i] = a[i][l]
			} else {
				for k := 0; k <= l; k++ {
					a[i][k] /= scale
					h += a[i][k] * a[i][k]
				}
				f := a[i][l]
				g := math.Sqrt(h)
				if f >= 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				a[i][l] = f - g
				f = 0
				for j := 0; j <= l; j++ {
					if wantV {
						a[j][i] = a[i][j] / h
					}
					g = 0
					for k := 0; k <= j; k++ {
						g += a[j][k] * a[i][k]
					}
					for k := j + 1; k <= l; k++ {
						g += a[k][j] * a[i][k]
					}
					e[j] = g / h
					f += e[j] * a[i][j]
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f = a[i][j]
					g = e[j] - hh*f
					e[j] = g
					for k := 0; k <= j; k++ {
						a[j][k] -= f*e[k] + g*a[i][k]
					}
				}
			}
		} else {
			e[i] = a[i][l]
		}
		d[i] = h
	}
	d[0] = 0
	e[0] = 0
	for i := 0; i < n; i++ {
		if wantV {
			l := i - 1
			if !EqZero(d[i]) {
				for j := 0; j <= l; j++ {
					g := 0.0
					for k := 0; k <= l; k++ {
						g += a[i][k] * a[k][j]
					}
					for k := 0; k <= l; k++ {
						a[k][j] -= g * a[k][i]
					}
				}
			}
			d[i] = a[i][i]
			a[i][i] = 1
			for j := 0; j <= l; j++ {
				a[j][i] = 0
				a[i][j] = 0
			}
		} else {
			d[i] = a[i][i]
		}
	}
}
