// Command graphiolint runs the repo's custom static-analysis pass
// (internal/lint) over package patterns and fails the build on findings.
//
// Usage:
//
//	graphiolint [-format text|json|sarif] [-o file] [-rules a,b] [-list] [patterns...]
//
// Patterns default to ./... and follow the go tool's shape ("./...",
// "./internal/core", "internal/..."). Exit status: 0 clean (warn-tier
// findings are printed but do not fail), 1 error-tier findings, 2 usage
// or load error. Findings are suppressed in place with
//
//	//lint:ignore <rule> <reason>
//
// on or directly above the offending line; the reason is mandatory and a
// suppression that matches nothing is itself a finding.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"graphio/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("graphiolint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "shorthand for -format json")
	format := fs.String("format", "text", "output format: text, json, or sarif")
	out := fs.String("o", "", "write findings to this file instead of stdout")
	rulesFlag := fs.String("rules", "", "comma-separated rule subset to run (default: all)")
	list := fs.Bool("list", false, "print the rule catalog and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jsonOut {
		*format = "json"
	}
	switch *format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(os.Stderr, "graphiolint: unknown -format %q (want text, json, or sarif)\n", *format)
		return 2
	}

	rules := lint.DefaultRules()
	if *list {
		for _, ri := range lint.CatalogInfo(rules) {
			fmt.Printf("%-18s %s\n", ri.Name, ri.Doc)
		}
		return 0
	}
	if *rulesFlag != "" {
		want := make(map[string]bool)
		for _, name := range strings.Split(*rulesFlag, ",") {
			want[strings.TrimSpace(name)] = true
		}
		var subset []lint.Rule
		for _, r := range rules {
			if want[r.Name()] {
				subset = append(subset, r)
				delete(want, r.Name())
			}
		}
		for name := range want {
			fmt.Fprintf(os.Stderr, "graphiolint: unknown rule %q (see -list)\n", name)
			return 2
		}
		rules = subset
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphiolint: %v\n", err)
		return 2
	}
	root, modpath, err := lint.FindModule(cwd)
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphiolint: %v\n", err)
		return 2
	}

	runner := &lint.Runner{Loader: lint.NewLoader(root, modpath), Rules: rules}
	diags, err := runner.Run(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphiolint: %v\n", err)
		return 2
	}

	dst := io.Writer(os.Stdout)
	if *out != "" {
		//lint:ignore persist-writes report output (-o) is regenerable tool output, not a durable artifact; plain create keeps the linter free of the persist import cycle
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "graphiolint: %v\n", err)
			return 2
		}
		defer f.Close()
		dst = f
	}
	switch *format {
	case "json":
		err = lint.WriteJSON(dst, diags)
	case "sarif":
		err = lint.WriteSARIF(dst, root, lint.CatalogInfo(rules), diags)
	default:
		err = lint.WriteText(dst, diags)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphiolint: %v\n", err)
		return 2
	}
	if errs := lint.CountErrors(diags); errs > 0 {
		fmt.Fprintf(os.Stderr, "graphiolint: %d finding(s), %d at the error tier\n", len(diags), errs)
		return 1
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "graphiolint: %d warning(s), gate passes\n", len(diags))
	}
	return 0
}
