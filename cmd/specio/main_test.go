package main

import (
	"flag"
	"testing"

	"graphio/internal/laplacian"
)

func TestParseKind(t *testing.T) {
	cases := map[string]laplacian.Kind{
		"normalized": laplacian.OutDegreeNormalized,
		"T4":         laplacian.OutDegreeNormalized,
		"theorem4":   laplacian.OutDegreeNormalized,
		"original":   laplacian.Original,
		"t5":         laplacian.Original,
	}
	for in, want := range cases {
		got, err := parseKind(in)
		if err != nil || got != want {
			t.Errorf("parseKind(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseKind("bogus"); err == nil {
		t.Error("bogus kind accepted")
	}
}

func loadWith(t *testing.T, args ...string) error {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	load := graphFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	_, err := load()
	return err
}

func TestGraphFlagsGenerators(t *testing.T) {
	for _, name := range []string{"fft", "matmul", "matmul-nary", "strassen", "bhk", "er", "inner", "chain", "tree", "grid"} {
		size := "4"
		if err := loadWith(t, "-graph", name, "-size", size); err != nil {
			t.Errorf("generator %q: %v", name, err)
		}
	}
	if err := loadWith(t, "-graph", "nope"); err == nil {
		t.Error("unknown generator accepted")
	}
	if err := loadWith(t); err == nil {
		t.Error("missing -graph/-in accepted")
	}
}

func TestGraphFlagsAliases(t *testing.T) {
	for _, alias := range []string{"hypercube", "tsp"} {
		if err := loadWith(t, "-graph", alias, "-size", "3"); err != nil {
			t.Errorf("alias %q: %v", alias, err)
		}
	}
}
