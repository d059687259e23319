package repro_test

// The documentation gates of the CI docs job.
//
// TestDocsPackageComments enforces the "go doc as a map of the paper"
// invariant: every package (internal/*, hybridnet, cmd/*) must carry a
// package-level doc comment, and every library package's comment must
// anchor itself to the reproduction — a paper reference (Theorem,
// Lemma, Section, Definition, …) or a DESIGN.md pointer.
//
// TestDocsMarkdownLinks keeps the top-level markdown honest: every
// relative link must resolve to a file or directory in the repository.
//
// TestDocsChargeTable keeps DESIGN.md §2's list of charged phases equal
// to the charge table in internal/hybrid/costs.go.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// packageDirs lists every directory that must carry a documented Go
// package.
func packageDirs(t *testing.T) []string {
	t.Helper()
	dirs := []string{"hybridnet"}
	for _, glob := range []string{"internal/*", "cmd/*"} {
		matches, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range matches {
			if st, err := os.Stat(m); err == nil && st.IsDir() {
				dirs = append(dirs, m)
			}
		}
	}
	return dirs
}

// packageDoc returns the package doc comment of the (non-test) package
// in dir, joined across files if several carry one.
func packageDoc(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var docs []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Fatalf("parsing %s/%s: %v", dir, name, err)
		}
		if f.Doc != nil {
			docs = append(docs, f.Doc.Text())
		}
	}
	return strings.Join(docs, "\n")
}

// paperAnchor matches the references a library package's doc comment
// must carry to serve as a map of the paper.
var paperAnchor = regexp.MustCompile(
	`Theorem|Lemma|Section|Definition|Corollary|Algorithm|Appendix|DESIGN\.md|PODC|HYBRID|paper`)

func TestDocsPackageComments(t *testing.T) {
	for _, dir := range packageDirs(t) {
		doc := packageDoc(t, dir)
		if strings.TrimSpace(doc) == "" {
			t.Errorf("%s: missing package doc comment (add one to the main file or a doc.go)", dir)
			continue
		}
		if len(strings.TrimSpace(doc)) < 60 {
			t.Errorf("%s: package doc comment is too thin to document anything:\n%s", dir, doc)
		}
		// cmd/* binaries document usage; the anchor requirement applies
		// to the library packages that reproduce the paper.
		if strings.HasPrefix(dir, "cmd/") {
			continue
		}
		if !paperAnchor.MatchString(doc) {
			t.Errorf("%s: package doc comment cites no paper section/lemma or DESIGN.md anchor:\n%s", dir, doc)
		}
	}
}

// markdownLink matches [text](target) links, excluding images.
var markdownLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

func TestDocsMarkdownLinks(t *testing.T) {
	files, err := filepath.Glob("*.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no markdown files at the repository root")
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range markdownLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"),
				strings.HasPrefix(target, "#"):
				continue // external links and intra-document anchors
			}
			target = strings.SplitN(target, "#", 2)[0]
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken relative link %q (%v)", file, m[1], err)
			}
		}
	}
}

// testOnlyKept lists the exported functions and methods under
// internal/ that no non-test code calls and that stay anyway, keyed by
// "package.Name" or "package.Receiver.Name" ("package.*" keeps a whole
// package), with the reason each stays. They are test references,
// helpers that tests in several packages share (a _test.go file cannot
// export them), or the paper's own claims, which ROADMAP items 1–3
// should drive. Do not re-delete them.
var testOnlyKept = map[string]string{
	// References and checkers the algorithms are verified against.
	"oracle.*":                "the sequential references every algorithm's output is checked against",
	"cuts.ExactCutValue":      "the exact cut value Theorem 9's approximation is checked against",
	"rulingset.Verify":        "checks the (α, β) ruling-set properties",
	"spanner.VerifyStretch":   "checks a spanner's stretch against exact distances",
	"sssp.VerifyStretch":      "checks approximate distances against exact ones",
	"sssp.VerifyEulerian":     "checks an Eulerian orientation's degree balance",
	"sssp.ExactBFS":           "the synchronous side of the async and sssp differential tests",
	"cluster.WeakDiameter":    "checks the Lemma 3.5 clusters' weak diameter",
	"hybrid.Net.Violations":   "models_test checks the γ-only models' mode rules with it",
	"hybrid.Transcripts.Runs": "tests in several packages count recorded and replayed transcripts with it",
	"graph.CSRHash":           "tests in several packages compare graph builds byte for byte with it",
	"runner.Serial":           "the one-worker runner that tests in several packages sweep with",
	"runner.DecodeRows":       "the cached-row decode that the root allocation guard measures and the runner fuzz test checks",
	"cliutil.VerifyUsageText": "every cmd/* test checks its binary's -h text with it",
	// The HYBRID model variants and primitives of Section 2.
	"hybrid.NewCongestedClique":   "the Congested Clique model variant",
	"hybrid.NewNCC0":              "the NCC₀ model variant",
	"hybrid.NewHybridLambdaGamma": "the HYBRID(λ, γ) model variant",
	"hybrid.Net.LearnBall":        "the identifier knowledge after a t-round local flood",
	"hybrid.Net.DeliverOneRound":  "the Section 1.3 single-round delivery with an adversary",
	"hybrid.Net.SendGlobal":       "the scheduled global send that SendGlobalLoad stands in for",
	"hybrid.Net.Knows":            "the HYBRID₀ identifier-knowledge query",
	// Section 7 lower-bound constructions and Appendix B growth bounds.
	"lower.BuildLemma74":                           "the Lemma 7.4 construction",
	"lower.Partition.Separation":                   "verifies property (2) of Lemma 7.4",
	"lower.PathSeparationInstance":                 "the canonical node-communication instance of Section 7",
	"lower.NodeCommInstance.VerifyAgainstMeasured": "checks measured rounds against a Section 7 bound",
	"nq.Theorem17Prediction":                       "Theorem 17's prediction",
	"nq.DiameterBoundFromGrowth":                   "the Appendix B diameter bound",
	"nq.GrowthExponent":                            "the Appendix B growth exponent",
	// Paper lemmas that ROADMAP item 3 composes instead of charging.
	"overlay.Prune":                    "Lemma 4.5's pruned overlay tree",
	"overlay.PrunedTree.Children":      "Lemma 4.5's pruned overlay tree",
	"overlay.PrunedTree.MaxDegree":     "Lemma 4.5's pruned overlay tree",
	"sssp.NewMinorAggregation":         "the Section 8 Minor-Aggregation model",
	"sssp.OracleEuler":                 "Lemma 8.6's Eulerian orientation with its round charge",
	"experiments.GammaScalingScenario": "Theorem 14's γ sweep; ROADMAP item 1 serves it or folds it into the certificate",
	// Operations.
	"artifact.Store.CompactDisk": "forces the disk tier's compaction, which the crash-consistency test drives",
}

// TestDocsNoTestOnlyExports fails on production code that only tests
// reach: an exported function or method declared in a non-test file
// under internal/ that no non-test Go file of the root module,
// examples/ or e2ebench/ uses. A method counts as used wherever its
// name appears; a package-level function only where it is named as
// pkg.Name (qualified through an import) or by its bare name inside
// its own package, so a field or method of the same name elsewhere
// does not hide it. Move such code into a _test.go file, delete it, or
// add it to testOnlyKept with its reason.
func TestDocsNoTestOnlyExports(t *testing.T) {
	type decl struct{ key, pos string }
	var decls []decl
	uses := make(map[string]int)     // identifiers by name: method uses
	funcUses := make(map[string]int) // "pkg.Name": package-level function uses
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		declared := make(map[*ast.Ident]bool)
		if strings.HasPrefix(path, "internal"+string(filepath.Separator)) {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				declared[fn.Name] = true
				key := f.Name.Name + "." + fn.Name.Name
				if fn.Recv != nil {
					key = f.Name.Name + "." + receiverName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				decls = append(decls, decl{key, fset.Position(fn.Pos()).String()})
			}
		}
		// imports maps the file's import names to package names (the last
		// element of the path, which is every package's name here).
		imports := make(map[string]string)
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			name := path[strings.LastIndex(path, "/")+1:]
			local := name
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = name
		}
		selected := make(map[*ast.Ident]bool) // the Sel of every selector
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					funcUses[imports[x.Name]+"."+n.Sel.Name]++
				}
			case *ast.Ident:
				if !declared[n] {
					uses[n.Name]++
					if !selected[n] {
						funcUses[f.Name.Name+"."+n.Name]++
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decls {
		pkg, name := d.key[:strings.Index(d.key, ".")], d.key[strings.LastIndex(d.key, ".")+1:]
		used := funcUses[d.key] > 0
		if strings.Count(d.key, ".") == 2 { // a method
			used = uses[name] > 0
		}
		if used || testOnlyKept[d.key] != "" || testOnlyKept[pkg+".*"] != "" {
			continue
		}
		t.Errorf("%s: %s is exported but only tests reach it; move it into a _test.go file, delete it, or add it to testOnlyKept with its reason", d.pos, d.key)
	}
}

// receiverName returns the type name of a method receiver expression.
func receiverName(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.StarExpr:
		return receiverName(e.X)
	case *ast.IndexExpr:
		return receiverName(e.X)
	case *ast.IndexListExpr:
		return receiverName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

// TestDocsChargeTable requires DESIGN.md §2 to list every entry of the
// charge table — the &Cost{phase, cite, kind, formula} literals of
// internal/hybrid/costs.go — in order, as its phase (a leading "/"
// written "<phase>/"), citation and kind, and nothing else.
func TestDocsChargeTable(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("internal", "hybrid", "costs.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var table []string
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		if id, ok := lit.Type.(*ast.Ident); !ok || id.Name != "Cost" {
			return true
		}
		var col [3]string
		for i := range col {
			if col[i], err = strconv.Unquote(lit.Elts[i].(*ast.BasicLit).Value); err != nil {
				t.Fatal(err)
			}
		}
		if col[2] != "cited" && col[2] != "own" && col[2] != "baseline" {
			t.Errorf("charge table entry %q has kind %q, want cited, own or baseline", col[0], col[2])
		}
		if strings.HasPrefix(col[0], "/") {
			col[0] = "<phase>" + col[0]
		}
		table = append(table, "`"+col[0]+"` | "+col[1]+" | "+col[2])
		return false
	})
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, _ := strings.Cut(string(data), "\n## 2. ")
	sec, _, _ = strings.Cut(sec, "\n## 3. ")
	var design []string
	for _, line := range strings.Split(sec, "\n") {
		if row, ok := strings.CutPrefix(line, "| `"); ok {
			cols := strings.SplitN(row, " | ", 4)
			design = append(design, "`"+strings.Join(cols[:3], " | "))
		}
	}
	if len(table) == 0 || strings.Join(table, "\n") != strings.Join(design, "\n") {
		t.Errorf("DESIGN.md §2 lists the charged phases\n%s\nbut the charge table holds\n%s",
			strings.Join(design, "\n"), strings.Join(table, "\n"))
	}
}
