// Command doclint enforces the repository's package-documentation
// policy (the vet-adjacent `make doc-lint` step):
//
//  1. Every package in the module carries a package-level doc comment.
//  2. Packages that own concurrency-sensitive state (the required set
//     below) must state their concurrency/aliasing contract in that
//     doc — who may call from which goroutines, and who owns returned
//     or retained memory — detected by contract vocabulary in the
//     comment ("concurren…", "goroutine", "single-owner", …).
//
// The point of rule 2 is the same as the rest of the determinism
// work: the parallel partition engine is only correct because each
// component's ownership story is explicit. A package whose doc cannot
// say "single-owner" or "safe for concurrent use" is a package nobody
// has thought about under -shards.
//
// Usage:
//
//	doclint            # lint the module rooted at the working directory
//	doclint -root dir  # lint another module
//
// Exits non-zero with one line per violation.
package main

import (
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// contractRequired lists the packages (by import-path suffix) whose
// package docs must state a concurrency/aliasing contract. These are
// the packages holding state the parallel partition engine shards,
// shares, or deliberately restricts.
var contractRequired = map[string]bool{
	"internal/atomicfile":  true,
	"internal/cache":       true,
	"internal/checkpoint":  true,
	"internal/cluster":     true,
	"internal/daemon":      true,
	"internal/dram":        true,
	"internal/envelope":    true,
	"internal/eventq":      true,
	"internal/faults":      true,
	"internal/flight":      true,
	"internal/icnt":        true,
	"internal/mem":         true,
	"internal/probe":       true,
	"internal/recycle":     true,
	"internal/resultcache": true,
	"internal/runner":      true,
	"internal/shard":       true,
	"internal/sim":         true,
	"internal/smcore":      true,
	"internal/statecodec":  true,
	"internal/stats":       true,
	"internal/telemetry":   true,
	"internal/trace":       true,
}

// contractVocabulary matches the words a concurrency/aliasing
// contract is stated with. The lint is lexical on purpose: it cannot
// judge whether a contract is *right*, only force one to be written.
var contractVocabulary = regexp.MustCompile(
	`(?i)(concurren|goroutine|single.owner|thread.safe|not safe for|safe for concurrent|aliasing|externally synchronized)`)

func main() {
	root := flag.String("root", ".", "module root to lint")
	flag.Parse()

	var violations []string
	err := filepath.WalkDir(*root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if name == "testdata" || name == "results" || strings.HasPrefix(name, ".") && path != *root {
			return fs.SkipDir
		}
		rel, _ := filepath.Rel(*root, path)
		violations = append(violations, lintDir(path, filepath.ToSlash(rel))...)
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "doclint:", err)
		os.Exit(1)
	}
	sort.Strings(violations)
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "doclint: "+v)
	}
	if len(violations) > 0 {
		os.Exit(1)
	}
}

// lintDir checks one directory's (non-test) package, returning its
// violations. Directories without Go files lint clean.
func lintDir(dir, rel string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", rel, err)}
	}
	fset := token.NewFileSet()
	var doc strings.Builder
	hasGo := false
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		hasGo = true
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil,
			parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			return []string{fmt.Sprintf("%s/%s: %v", rel, name, err)}
		}
		if f.Doc != nil {
			doc.WriteString(f.Doc.Text())
		}
	}
	if !hasGo {
		return nil
	}
	var out []string
	text := doc.String()
	if strings.TrimSpace(text) == "" {
		out = append(out, fmt.Sprintf("%s: package has no package-level doc comment", rel))
	}
	if contractRequired[rel] && !contractVocabulary.MatchString(text) {
		out = append(out, fmt.Sprintf(
			"%s: package doc does not state its concurrency/aliasing contract (expected vocabulary like %q)",
			rel, "single-owner / safe for concurrent use / goroutine"))
	}
	return out
}
