package armnet_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"armnet"
	"armnet/internal/netfaults"
)

// between returns the text after the first `open` in s up to the next
// `close`, failing the test when the document no longer has that shape.
func between(t *testing.T, doc, s, open, close string) string {
	t.Helper()
	i := strings.Index(s, open)
	if i < 0 {
		t.Fatalf("%s: %q not found — the documented plan moved; update this test with it", doc, open)
	}
	s = s[i+len(open):]
	j := strings.Index(s, close)
	if j < 0 {
		t.Fatalf("%s: no %q after %q", doc, close, open)
	}
	return s[:j]
}

// TestDocumentedFaultPlansParse executes the fault plans the prose
// shows: each must parse on the plane the text says it is for, and —
// the planes being strict — be refused by the other.
func TestDocumentedFaultPlansParse(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	example, err := os.ReadFile("examples/faults/main.go")
	if err != nil {
		t.Fatal(err)
	}
	chaos := between(t, "README.md", string(readme), "### Chaos: faults and recovery", "\n### ")
	var soakLines []string // the backquoted spans of "`-plan FILE` (… e.g. `…` / `…`)"
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(between(t, "README.md", string(readme), "`-plan FILE` (", ")"), -1) {
		soakLines = append(soakLines, m[1])
	}

	for _, tc := range []struct {
		doc, spec    string
		wire         bool
		rules, timed int
	}{
		{"README.md chaos block", between(t, "README.md", chaos, "ParseFaultPlan(strings.NewReader(`", "`))"), false, 1, 2},
		{"README.md armnode -plan example", strings.Join(soakLines, "\n"), true, 1, 1},
		{"examples/faults plan", between(t, "examples/faults/main.go", string(example), "const plan = `", "`"), false, 1, 2},
	} {
		sim, simErr := armnet.ParseFaultPlan(strings.NewReader(tc.spec))
		wire, wireErr := netfaults.ParsePlanString(tc.spec)
		p, err, otherErr := sim, simErr, wireErr
		if tc.wire {
			p, err, otherErr = wire, wireErr, simErr
		}
		if err != nil {
			t.Errorf("%s does not parse on its plane: %v\n%s", tc.doc, err, tc.spec)
			continue
		}
		if len(p.Rules) != tc.rules || len(p.Timed) != tc.timed {
			t.Errorf("%s: %d rules and %d timed faults, want %d and %d:\n%s", tc.doc, len(p.Rules), len(p.Timed), tc.rules, tc.timed, tc.spec)
		}
		if otherErr == nil || !strings.Contains(otherErr.Error(), ": line ") {
			t.Errorf("%s: the other plane's parser returned %v, want a line-numbered refusal", tc.doc, otherErr)
		}
	}
}

// TestDocumentedPathsExist holds the prose to the tree: every backquoted
// span in the top-level documents that is a file path — ending .go,
// .json, .golden, .jsonl, .sh or .md, with any :line suffix stripped —
// must name a file in the repository, either from the root or as the
// tail of one (`strategy/explicitrate.go`, `protocol.go`). A document
// still naming code that was deleted or moved fails here.
func TestDocumentedPathsExist(t *testing.T) {
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == ".git" || path == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() {
			files = append(files, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	resolves := func(p string) bool {
		for _, f := range files {
			if f == p || strings.HasSuffix(f, "/"+p) {
				return true
			}
		}
		return false
	}
	span := regexp.MustCompile("`([^`\n]+)`")
	// A base name starts with a letter or digit, so `_test.go` is a
	// suffix, not a file.
	path := regexp.MustCompile(`^(?:\./)?((?:[A-Za-z0-9_.-]+/)*[A-Za-z0-9][A-Za-z0-9_.-]*\.(?:go|json|golden|jsonl|sh|md))(?::[0-9]+(?:-[0-9]+)?)?$`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "bench/README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range span.FindAllStringSubmatch(string(text), -1) {
			if p := path.FindStringSubmatch(m[1]); p != nil && !resolves(p[1]) {
				t.Errorf("%s names `%s`, which is no file in the repository", doc, m[1])
			}
		}
	}
}

// exportedNames returns the exported names a document may cite after
// `pkg.` for the package in dir: its top-level identifiers (functions,
// types, variables and constants) and the methods and fields of its
// types, read from the non-test Go files.
func exportedNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	add := func(ids ...*ast.Ident) {
		for _, id := range ids {
			if id.IsExported() {
				names[id.Name] = true
			}
		}
	}
	fset := token.NewFileSet()
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				add(n.Name)
				return false
			case *ast.TypeSpec:
				add(n.Name)
			case *ast.ValueSpec:
				add(n.Names...)
				return false
			case *ast.Field: // struct fields and interface methods
				add(n.Names...)
			}
			return true
		})
	}
	return names
}

// TestDocumentedIdentifiersExist holds the prose to the API the way
// TestDocumentedPathsExist holds it to the tree: every backquoted span in
// the top-level documents that starts with `pkg.X`, where pkg is the
// root package (armnet) or a directory under internal/, must name an
// exported identifier of that package — top-level, or a method or field
// of one of its types — and a bare `RunX` must be exported by internal/sim
// or the root package. A document still citing a deleted or renamed
// name fails here.
func TestDocumentedIdentifiersExist(t *testing.T) {
	pkgs := map[string]map[string]bool{"armnet": exportedNames(t, ".")}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() {
			pkgs[d.Name()] = exportedNames(t, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	span := regexp.MustCompile("`([^`\n]+)`")
	ident := regexp.MustCompile(`^(?:([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)|(Run[A-Z][A-Za-z0-9_]*))`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range span.FindAllStringSubmatch(string(text), -1) {
			id := ident.FindStringSubmatch(m[1])
			switch {
			case id == nil:
			case id[1] != "":
				if names, ok := pkgs[id[1]]; ok && !names[id[2]] {
					t.Errorf("%s cites `%s`: %s.%s is no exported identifier, method or field", doc, m[1], id[1], id[2])
				}
			case !pkgs["sim"][id[3]] && !pkgs["armnet"][id[3]]:
				t.Errorf("%s cites `%s`: %s is exported by neither internal/sim nor the root package", doc, m[1], id[3])
			}
		}
	}
}
