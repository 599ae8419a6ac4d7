package armnet_test

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
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
	example, err := os.ReadFile("example_test.go")
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
		{"ExampleParseFaultPlan plan", between(t, "example_test.go", string(example), "const plan = `", "`"), false, 1, 2},
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

// TestDocumentedTestsExist holds the prose to the test suite: every
// backquoted span in the top-level documents that starts with a test,
// benchmark or fuzz target name (`TestX`, `BenchmarkX`, `FuzzX`) must
// name a func in some _test.go file of the repository, bench/ included;
// a trailing `*` (`BenchmarkAdmitRelease*`) matches any func with that
// prefix. A document still citing a renamed or deleted test fails here.
func TestDocumentedTestsExist(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	var funcs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == ".git" || path == ".bench_build") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			funcs = append(funcs, m[1])
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	span := regexp.MustCompile("`([^`\n]+)`")
	name := regexp.MustCompile(`^((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)(\*?)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "bench/README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range span.FindAllStringSubmatch(string(text), -1) {
			n := name.FindStringSubmatch(m[1])
			if n == nil || slices.ContainsFunc(funcs, func(f string) bool {
				return f == n[1] || n[2] == "*" && strings.HasPrefix(f, n[1])
			}) {
				continue
			}
			t.Errorf("%s cites `%s`: no func %s%s in any _test.go file", doc, m[1], n[1], n[2])
		}
	}
}

// commandFlags reads cmd/<name>/main.go and returns the flags it defines
// (the string-literal name of every flag.X call) and the string literals
// a flag's value is checked against: the keys of a composite literal
// assigned to a variable (paperfigs' runners map) and the cases of a
// `switch *v` statement (armnode's mode), each under that variable's name.
func commandFlags(t *testing.T, name string) (flags map[string]bool, values map[string][]string) {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), filepath.Join("cmd", name, "main.go"), nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	str := func(e ast.Expr) (string, bool) {
		lit, ok := e.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(lit.Value)
		return s, err == nil
	}
	flags, values = map[string]bool{}, map[string][]string{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			for _, a := range n.Args[:min(2, len(n.Args))] { // flag.X(name, …) and flag.XVar(&v, name, …)
				if s, ok := str(a); ok {
					flags[s] = true
					break
				}
			}
		case *ast.ValueSpec:
			for i, v := range n.Values {
				if lit, ok := v.(*ast.CompositeLit); ok {
					for _, elt := range lit.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if s, ok := str(kv.Key); ok {
								values[n.Names[i].Name] = append(values[n.Names[i].Name], s)
							}
						}
					}
				}
			}
		case *ast.SwitchStmt:
			star, ok := n.Tag.(*ast.StarExpr)
			if !ok {
				return true
			}
			v, ok := star.X.(*ast.Ident)
			if !ok {
				return true
			}
			for _, stmt := range n.Body.List {
				for _, e := range stmt.(*ast.CaseClause).List {
					if s, ok := str(e); ok {
						values[v.Name] = append(values[v.Name], s)
					}
				}
			}
		}
		return true
	})
	return flags, values
}

// TestDocumentedFlagsExist holds the prose to the command lines: every
// backquoted span in the top-level documents that starts with a command
// (`armsim …`, `cmd/paperfigs …`, `go run ./cmd/armnode …`) may only use
// flags that command defines, and the values it gives paperfigs -exp
// (a comma-separated list) and armnode -mode must be ones those commands
// accept. A document still citing a removed or renamed flag fails here.
func TestDocumentedFlagsExist(t *testing.T) {
	flags := map[string]map[string]bool{}
	values := map[string]map[string][]string{}
	for _, name := range []string{"armsim", "armnode", "paperfigs", "tracegen", "benchcap"} {
		flags[name], values[name] = commandFlags(t, name)
		if len(flags[name]) == 0 {
			t.Fatalf("cmd/%s/main.go defines no flags: the reader no longer understands it", name)
		}
	}
	// accepts lists the values a command's flag may take, where checked.
	accepts := map[[2]string][]string{
		{"paperfigs", "exp"}: append(values["paperfigs"]["runners"], "all"),
		{"armnode", "mode"}:  values["armnode"]["mode"],
	}
	for k, v := range accepts {
		if len(v) < 2 {
			t.Fatalf("read %v as the values %s -%s accepts", v, k[0], k[1])
		}
	}

	span := regexp.MustCompile("`([^`\n]+)`")
	invocation := regexp.MustCompile(`^(?:go run \./cmd/|cmd/)?(armsim|armnode|paperfigs|tracegen|benchcap)(?:\s|$)`)
	flagTok := regexp.MustCompile(`^--?([A-Za-z][A-Za-z0-9-]*)(?:=(.*))?$`)
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range span.FindAllStringSubmatch(string(text), -1) {
			inv := invocation.FindStringSubmatch(m[1])
			if inv == nil {
				continue
			}
			checked++
			toks := strings.Fields(m[1])
			for i, tok := range toks {
				f := flagTok.FindStringSubmatch(tok)
				if f == nil {
					continue
				}
				if !flags[inv[1]][f[1]] {
					t.Errorf("%s cites `%s`: %s defines no flag -%s", doc, m[1], inv[1], f[1])
					continue
				}
				accepted, ok := accepts[[2]string{inv[1], f[1]}]
				if !ok {
					continue
				}
				val := f[2]
				if !strings.Contains(tok, "=") && i+1 < len(toks) {
					val = toks[i+1]
				}
				for _, v := range strings.Split(val, ",") {
					if !slices.Contains(accepted, v) {
						t.Errorf("%s cites `%s`: %s -%s does not accept %q (have %v)", doc, m[1], inv[1], f[1], v, accepted)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no command span found in the documents: the span pattern no longer matches them")
	}
}

// TestTheorem1BlockMatches holds EXPERIMENTS.md's Theorem 1 block to the
// experiment: the fenced block after the command that prints it must be
// that command's output, line for line up to runs of whitespace. The
// experiment runs in process with the flags `paperfigs -exp theorem1`
// passes (seed 1, 20 perturbed instances, flooding then refined) and
// takes a few milliseconds.
func TestTheorem1BlockMatches(t *testing.T) {
	const doc, cmd, fence = "EXPERIMENTS.md", "`go run ./cmd/paperfigs -exp theorem1`", "\n```\n"
	text, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	s := string(text)
	i := strings.Index(s, cmd)
	if i < 0 {
		t.Fatalf("%s: %s not found — the Theorem 1 block moved; update this test with it", doc, cmd)
	}
	j := strings.Index(s[i:], fence)
	if j < 0 {
		t.Fatalf("%s: no fenced block after %s", doc, cmd)
	}
	start := i + j + len(fence)
	n := strings.Index(s[start:], "\n```")
	if n < 0 {
		t.Fatalf("%s: the block after %s is not closed", doc, cmd)
	}
	block := strings.Split(s[start:start+n], "\n")
	first := strings.Count(s[:start], "\n") + 1
	var want []string
	for _, refined := range []bool{false, true} {
		r, _, err := armnet.RunTheorem1(context.Background(), armnet.Theorem1Config{
			Seed: 1, Instances: 20, Refined: refined, Perturb: true,
		}, 1)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, r.String())
	}
	norm := func(line string) string { return strings.Join(strings.Fields(line), " ") }
	for k := range max(len(block), len(want)) {
		var got, w string
		if k < len(block) {
			got = block[k]
		}
		if k < len(want) {
			w = want[k]
		}
		if norm(got) != norm(w) {
			t.Errorf("%s:%d reads %q; the experiment prints %q", doc, first+k, got, w)
		}
	}
}
