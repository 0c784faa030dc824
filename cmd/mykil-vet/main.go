// Command mykil-vet runs the repo's invariant checks (internal/analysis)
// over Go packages and prints file:line:col diagnostics.
//
// Usage:
//
//	mykil-vet [-checks keyflow,journalorder] [-json] [pattern ...]
//	mykil-vet -list
//
// Patterns follow the go tool's shape: a directory loads one package, a
// directory with a /... suffix loads the whole subtree (skipping testdata
// and vendor). The default pattern is ./... .
//
// -json prints diagnostics as a JSON array of
// {file, line, col, check, message} objects instead of the
// file:line:col text form; the exit-code contract is unchanged.
//
// Exit codes: 0 no diagnostics, 1 diagnostics were reported, 2 usage or
// load error. CI treats any nonzero exit as a failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"mykil/internal/analysis"
)

// jsonDiag is the -json wire form of one diagnostic.
type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("mykil-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checksFlag := fs.String("checks", "", "comma-separated checks to run (default: all)")
	listFlag := fs.Bool("list", false, "list registered checks and exit")
	jsonFlag := fs.Bool("json", false, "print diagnostics as a JSON array")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *listFlag {
		for _, c := range analysis.Checks() {
			fmt.Fprintf(stdout, "%s\n", c.Name)
			for _, line := range strings.Split(c.Doc, "\n") {
				fmt.Fprintf(stdout, "    %s\n", line)
			}
		}
		return 0
	}

	checks, err := analysis.Lookup(*checksFlag)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	var pkgs []*analysis.Package
	for _, pat := range patterns {
		if dir, ok := strings.CutSuffix(pat, "/..."); ok {
			if dir == "" {
				dir = "."
			}
			tree, err := loader.LoadTree(dir)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			pkgs = append(pkgs, tree...)
			continue
		}
		pkg, err := loader.Load(pat)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		pkgs = append(pkgs, pkg)
	}

	diags := analysis.Run(pkgs, checks)
	if *jsonFlag {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				File:    d.Pos.Filename,
				Line:    d.Pos.Line,
				Col:     d.Pos.Column,
				Check:   d.Check,
				Message: d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "mykil-vet: %d diagnostic(s)\n", len(diags))
		return 1
	}
	return 0
}
