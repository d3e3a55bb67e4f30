// FFT example: reproduce the paper's §5.2 analysis end to end. For a sweep
// of FFT sizes it compares
//
//   - the computed spectral bound (Theorem 4 on the generated butterfly),
//   - the closed-form bound evaluated from the Theorem 7 butterfly
//     spectrum (no eigensolver at all), and
//   - the published asymptotically tight Hong-Kung bound Ω(l·2^l / log M),
//
// showing the closed form tracks Hong-Kung within the 1/log M factor the
// paper proves.
//
//	go run ./examples/fft [-M 4] [-max-l 11]
package main

import (
	"context"
	"flag"
	"fmt"
	"math"

	"graphio/examples/internal/exutil"
	"graphio/internal/analytic"
	"graphio/internal/core"
	"graphio/internal/gen"
	"graphio/internal/laplacian"
)

func main() {
	M := flag.Int("M", 4, "fast memory size")
	maxL := flag.Int("max-l", 11, "largest FFT level")
	flag.Parse()

	ctx := context.Background()

	fmt.Printf("2^l-point FFT, M=%d\n", *M)
	fmt.Printf("%3s %8s %12s %12s %12s %12s %10s\n",
		"l", "n", "spectral_T4", "closedform", "closed_T5", "hong-kung", "cf/hk")
	for l := 3; l <= *maxL; l++ {
		g := gen.FFT(l)
		res, err := core.SpectralBoundContext(ctx, g, core.Options{M: *M})
		exutil.Check(err, fmt.Sprintf("spectral bound for FFT l=%d", l))
		// Theorem 5 fed the exact closed-form spectrum: no eigensolver.
		spec := analytic.ButterflySpectrum(l)
		closedT5, _, _ := core.BoundFromEigenvalues(spec, g.N(), *M, 1, float64(g.MaxOutDeg()))
		cf, _ := analytic.FFTClosedForm(l, *M)
		hk := analytic.HongKungFFT(l, *M)
		fmt.Printf("%3d %8d %12.2f %12.2f %12.2f %12.2f %10.4f\n",
			l, g.N(), res.Bound, cf, closedT5, hk, cf/hk)
	}

	// The §5.2 punchline: the spectral closed form is within a 1/log2(M)
	// factor of the tight bound as l grows.
	l := *maxL
	cf, _ := analytic.FFTClosedForm(l, *M)
	hk := analytic.HongKungFFT(l, *M)
	if hk > 0 && cf > 0 {
		fmt.Printf("\nat l=%d: closed form / Hong-Kung = %.4f vs 1/log2(M) = %.4f\n",
			l, cf/hk, 1/math.Log2(float64(*M)))
	}

	// Theorem 4 vs Theorem 5 on the same graph (ablation §4.3): the
	// butterfly has uniform out-degree 2 away from the sinks, so the two
	// bounds nearly coincide.
	g := gen.FFT(8)
	t4, err := core.SpectralBoundContext(ctx, g, core.Options{M: *M})
	exutil.Check(err, "Theorem 4 bound for the l=8 ablation")
	t5, err := core.SpectralBoundContext(ctx, g, core.Options{M: *M, Laplacian: laplacian.Original})
	exutil.Check(err, "Theorem 5 bound for the l=8 ablation")
	fmt.Printf("l=8 ablation: Theorem 4 = %.2f, Theorem 5 = %.2f\n", t4.Bound, t5.Bound)
}
