package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os"
	"strings"

	"libra/internal/lint/analysis"
	"libra/internal/lint/analyzers"
	"libra/internal/lint/loader"
)

// vetConfig is the per-package work unit cmd/go hands a vet tool: the
// sources to check plus the import-path → export-data map for their full
// dependency graph. Field set mirrors x/tools' unitchecker.Config, which
// is the de-facto schema of the protocol.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitcheck runs the analyzers over one vet work unit. Exit codes follow
// the vet protocol: 0 clean, 1 operational failure, 2 findings.
func unitcheck(cfgPath string) int {
	data, readErr := os.ReadFile(cfgPath)
	if readErr != nil {
		fmt.Fprintln(os.Stderr, "libra-lint:", readErr)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "libra-lint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The tool produces no facts, but cmd/go caches on the output file's
	// existence, so always write the (empty) vetx.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "libra-lint:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	// Analyzers cover production code only: test files legitimately use
	// context.Background, fake clocks, and fmt. Vet hands us test
	// variants of each package too; strip them down to nothing and skip.
	var files []string
	for _, f := range cfg.GoFiles {
		if !strings.HasSuffix(f, "_test.go") {
			files = append(files, f)
		}
	}
	importPath := cfg.ImportPath
	if i := strings.Index(importPath, " ["); i >= 0 {
		importPath = importPath[:i] // "p [p.test]" → the real import path
	}
	if len(files) == 0 || strings.HasSuffix(importPath, ".test") {
		return 0
	}
	fset := token.NewFileSet()
	imp := loader.ExportImporter(fset, cfg.PackageFile, cfg.ImportMap)
	pkg, err := loader.ParseAndCheck(fset, importPath, files, imp)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "libra-lint:", err)
		return 1
	}
	var run []*analysis.Analyzer
	for _, a := range analyzers.All {
		if a.AppliesTo == nil || a.AppliesTo(importPath) {
			run = append(run, a)
		}
	}
	diags, err := analysis.Run(fset, pkg.Files, pkg.Types, pkg.Info, run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "libra-lint:", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// printVersion answers `-V=full`: cmd/go hashes the reported version into
// its action cache key, so derive it from the binary's own contents —
// rebuilding the tool invalidates prior vet results, nothing else does.
func printVersion() {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			_, _ = io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("libra-lint version %x\n", h.Sum(nil)[:16])
}
