package armnet_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"armnet"
	"armnet/internal/faults"
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
		wire, wireErr := faults.ParseWirePlan(strings.NewReader(tc.spec))
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
// tail of one (`strategy/explicitrate.go`, `protocol.go`); and every
// span that is a package directory from the root — `internal/<pkg>` or
// `cmd/<name>`, alone or before an exported name (`internal/core.Manager`)
// — must name a directory. A document still naming code that was deleted
// or moved fails here.
func TestDocumentedPathsExist(t *testing.T) {
	var files []string
	dirs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == ".git" || path == ".bench_build") {
			return filepath.SkipDir
		}
		if d.IsDir() {
			dirs[filepath.ToSlash(path)] = true
		} else {
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
	pkg := regexp.MustCompile(`^(?:\./)?((?:internal|cmd)(?:/[a-z0-9_]+)+)/?(?:\.[A-Z]\w*)*$`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "bench/README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range span.FindAllStringSubmatch(string(text), -1) {
			if p := path.FindStringSubmatch(m[1]); p != nil && !resolves(p[1]) {
				t.Errorf("%s names `%s`, which is no file in the repository", doc, m[1])
			}
			if p := pkg.FindStringSubmatch(m[1]); p != nil && !dirs[p[1]] {
				t.Errorf("%s names `%s`, which is no directory in the repository", doc, m[1])
			}
		}
	}
}

// TestWallClockConfined holds the program to its clocks: a wall-clock
// read (time.Now, time.Since or time.Until) in the root module's non-test
// code may sit only in a function this list names, with the reason it
// reads the wall. Everything else takes its time from a clock.Clock, so
// a run is a function of its seed. A new read outside the list fails,
// and so does an entry whose function no longer reads the wall.
func TestWallClockConfined(t *testing.T) {
	allowed := map[string]string{
		"internal/clock/clock.go NewWall":                     "clock.Wall is the wall-clock Clock; this is its epoch",
		"internal/clock/clock.go Wall.Now":                    "clock.Wall is the wall-clock Clock; this is its reading",
		"internal/runner/runner.go Map":                       "the pool's wall and work statistics, printed to stderr and never to a compared output",
		"internal/testnet/transport.go udpTransport.exchange": "a real socket's read deadline is wall time: the ack wait of a live UDP datagram",
		"cmd/benchcap/main.go main":                           "the capture stamp that dates a BENCH_*.json entry",
	}
	fset := token.NewFileSet()
	seen := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == ".git" || path == ".bench_build" || path == "bench") {
			return filepath.SkipDir // bench/ is a module of its own
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		timePkg := "" // the file's name for package time
		for _, imp := range f.Imports {
			if imp.Path.Value == `"time"` {
				timePkg = "time"
				if imp.Name != nil {
					timePkg = imp.Name.Name
				}
			}
		}
		if timePkg == "" {
			return nil
		}
		for _, decl := range f.Decls {
			where := "package scope"
			if fn, ok := decl.(*ast.FuncDecl); ok {
				where = fn.Name.Name
				if recv := recvType(fn); recv != nil {
					where = recv.Name + "." + where
				}
			}
			key := filepath.ToSlash(path) + " " + where
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || !slices.Contains([]string{"Now", "Since", "Until"}, sel.Sel.Name) {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == timePkg {
					seen[key] = true
					if _, ok := allowed[key]; !ok {
						t.Errorf("%s: time.%s in %s reads the wall clock; take the time from a clock.Clock, or allowlist %q with a reason",
							fset.Position(sel.Pos()), sel.Sel.Name, where, key)
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range sortedKeys(allowed) {
		if !seen[key] {
			t.Errorf("allowlist entry %q (%s) reads no wall clock any more: delete it", key, allowed[key])
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
// (the string-literal name of every flag.X call, or X call on a
// flag.NewFlagSet the file assigns) and the string literals
// a flag's value is checked against: the keys of a composite literal
// assigned to a variable (paperfigs' runners map, armnode's modeFlags),
// under that variable's name.
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
	sets := map[string]bool{"flag": true} // flag and the flag sets declared so far
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if call, ok := n.Rhs[0].(*ast.CallExpr); ok && len(n.Lhs) == 1 {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "NewFlagSet" {
					if id, ok := n.Lhs[0].(*ast.Ident); ok {
						sets[id.Name] = true
					}
					return false // its first argument is the set's name, not a flag
				}
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if recv, ok := sel.X.(*ast.Ident); !ok || !sets[recv.Name] {
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
		{"armnode", "mode"}:  values["armnode"]["modeFlags"],
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

// exportScan is a go/types view of every package of the root module and
// of bench/ (its own module, loaded by path): which other packages'
// non-test files reference each object, which interface methods some
// non-test code calls, and — test files included — where each struct
// field is written.
type exportScan struct {
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]string // import path → directory
	pkgs  map[string]*types.Package
	users map[types.Object]map[string]bool
	// called holds, by name, every interface method non-test code calls —
	// a module interface's, a generic constraint's or, since the standard
	// library's callers are not scanned, every standard-library one.
	called map[string][]*types.Func
	// files holds every parsed file by path, so a package's test check
	// reuses its non-test files and their objects keep one position.
	files map[string]*ast.File
	// writers maps a field's declaring position to the receiver types,
	// by declaring position, of the functions that write it — token.NoPos
	// for a function that is no method.
	writers map[token.Pos]map[token.Pos]bool
	// mapSums holds, by enclosing function, the positions where a range
	// over a map in the root module's non-test code accumulates into a
	// float declared outside the loop (see TestNoFloatSumOverMapRange).
	mapSums map[string][]token.Pos
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// scanExports loads every package directory under the repository root —
// the root module's and bench/'s alike, since bench/'s `replace armnet
// => ../` makes its imports resolve to the same directories — and then
// type-checks each one's in-package and external test files for writes.
func scanExports(t *testing.T) *exportScan {
	t.Helper()
	s := &exportScan{
		fset:    token.NewFileSet(),
		dirs:    map[string]string{},
		pkgs:    map[string]*types.Package{},
		users:   map[types.Object]map[string]bool{},
		called:  map[string][]*types.Func{},
		files:   map[string]*ast.File{},
		writers: map[token.Pos]map[token.Pos]bool{},
		mapSums: map[string][]token.Pos{},
	}
	s.std = importer.ForCompiler(s.fset, "gc", nil)
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(dir, 0); err == nil {
			s.dirs[path.Join("armnet", filepath.ToSlash(dir))] = dir
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sortedKeys(s.dirs) {
		if _, err := s.Import(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range sortedKeys(s.dirs) {
		if err := s.checkTests(p); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[*types.Package]bool{}
	for _, p := range s.pkgs {
		s.stdInterfaces(p, seen)
	}
	s.call(types.Universe.Lookup("error").Type().Underlying().(*types.Interface).Method(0))
	return s
}

// call records m as an interface method non-test code calls.
func (s *exportScan) call(m *types.Func) {
	if !slices.Contains(s.called[m.Name()], m) {
		s.called[m.Name()] = append(s.called[m.Name()], m)
	}
}

// Import type-checks a module package from its non-test files and
// records what it references; a standard-library path goes to export data.
func (s *exportScan) Import(p string) (*types.Package, error) {
	if pkg, ok := s.pkgs[p]; ok {
		return pkg, nil
	}
	dir, ok := s.dirs[p]
	if !ok {
		return s.std.Import(p)
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files, err := s.parse(dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	pkg, err := (&types.Config{Importer: s}).Check(p, s.fset, files, info)
	if err != nil {
		return nil, err
	}
	s.pkgs[p] = pkg
	s.recordWrites(files, info)
	if p != "armnet/bench" && !strings.HasPrefix(p, "armnet/bench/") {
		s.recordMapSums(p, files, info)
	}
	for _, obj := range info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
			if recv := o.Origin().Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				s.call(o.Origin())
			}
		case *types.Var:
			obj = o.Origin()
		}
		if obj.Pkg() != nil && obj.Pkg() != pkg && strings.HasPrefix(obj.Pkg().Path(), "armnet/internal/") {
			if s.users[obj] == nil {
				s.users[obj] = map[string]bool{}
			}
			s.users[obj][p] = true
		}
	}
	return pkg, nil
}

// parse returns the named files of dir, each parsed once.
func (s *exportScan) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		name = filepath.Join(dir, name)
		f, ok := s.files[name]
		if !ok {
			var err error
			if f, err = parser.ParseFile(s.fset, name, nil, parser.SkipObjectResolution); err != nil {
				return nil, err
			}
			s.files[name] = f
		}
		files = append(files, f)
	}
	return files, nil
}

// checkTests type-checks package p's in-package test files together with
// its non-test files, and its external test files against that
// test-augmented package, as `go test` builds them, recording only the
// writes the test files make.
func (s *exportScan) checkTests(p string) error {
	dir := s.dirs[p]
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return err
	}
	pkg := s.pkgs[p]
	if len(bp.TestGoFiles) > 0 {
		files, err := s.parse(dir, append(slices.Clone(bp.GoFiles), bp.TestGoFiles...))
		if err != nil {
			return err
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		if pkg, err = (&types.Config{Importer: s}).Check(p, s.fset, files, info); err != nil {
			return err
		}
		s.recordWrites(files[len(bp.GoFiles):], info)
	}
	if len(bp.XTestGoFiles) > 0 {
		files, err := s.parse(dir, bp.XTestGoFiles)
		if err != nil {
			return err
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		imp := importerFunc(func(path string) (*types.Package, error) {
			if path == p {
				return pkg, nil
			}
			return s.Import(path)
		})
		if _, err := (&types.Config{Importer: imp}).Check(p+"_test", s.fset, files, info); err != nil {
			return err
		}
		s.recordWrites(files, info)
	}
	return nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// recordWrites records every struct field the files write — a key of a
// composite literal, the left side of an assignment or an increment, or
// an operand of & — with the receiver type of the function that writes it.
func (s *exportScan) recordWrites(files []*ast.File, info *types.Info) {
	for _, f := range files {
		for _, decl := range f.Decls {
			recv := token.NoPos
			if fn, ok := decl.(*ast.FuncDecl); ok {
				if id := recvType(fn); id != nil && info.Uses[id] != nil {
					recv = info.Uses[id].Pos()
				}
			}
			// write records e when it names a field: a literal's key, or
			// the selector x.F.
			write := func(e ast.Expr) {
				e = ast.Unparen(e)
				if sel, ok := e.(*ast.SelectorExpr); ok {
					e = sel.Sel
				}
				id, _ := e.(*ast.Ident)
				if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
					pos := v.Origin().Pos()
					if s.writers[pos] == nil {
						s.writers[pos] = map[token.Pos]bool{}
					}
					s.writers[pos][recv] = true
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							write(kv.Key)
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						write(lhs)
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						write(n.X)
					}
				}
				return true
			})
		}
	}
}

// recvType returns the name of fn's receiver type, or nil for a function
// that is no method.
func recvType(fn *ast.FuncDecl) *ast.Ident {
	if fn.Recv == nil {
		return nil
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if ix, ok := typ.(*ast.IndexExpr); ok {
		typ = ix.X
	} else if ix, ok := typ.(*ast.IndexListExpr); ok {
		typ = ix.X
	}
	id, _ := typ.(*ast.Ident)
	return id
}

// recordMapSums records every range over a map whose body accumulates
// into a float declared outside the loop: `x += …`, `x -= …` or
// `x = x ± …`, where x is a variable, or a field or element reached from
// one. Map order is random, float addition is not associative, so such a
// sum can differ in its last bits from run to run. An element indexed by
// the loop's own key (`out[k] += v`) takes one term per loop, in no order,
// and is not a sum over the map.
func (s *exportScan) recordMapSums(p string, files []*ast.File, info *types.Info) {
	rel := strings.TrimPrefix(p, "armnet/internal/")
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := rel + "." + fn.Name.Name
			if id := recvType(fn); id != nil {
				name = rel + "." + id.Name + "." + fn.Name.Name
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if _, ok := info.TypeOf(rs.X).Underlying().(*types.Map); !ok {
					return true
				}
				ast.Inspect(rs.Body, func(n ast.Node) bool {
					as, ok := n.(*ast.AssignStmt)
					if !ok {
						return true
					}
					for i, lhs := range as.Lhs {
						if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && rs.Key != nil && sameVar(ix.Index, rs.Key, info) {
							continue
						}
						sum := as.Tok == token.ADD_ASSIGN || as.Tok == token.SUB_ASSIGN
						if as.Tok == token.ASSIGN && len(as.Rhs) == len(as.Lhs) {
							sum = addsTo(as.Rhs[i], rootVar(lhs, info), info)
						}
						if !sum || !isFloat(info.TypeOf(lhs)) {
							continue
						}
						if v := rootVar(lhs, info); v != nil && (v.Pos() < rs.Pos() || v.Pos() >= rs.End()) {
							s.mapSums[name] = append(s.mapSums[name], as.Pos())
						}
					}
					return true
				})
				return true
			})
		}
	}
}

// sameVar reports whether a and b name the same variable, b possibly by
// declaring it.
func sameVar(a, b ast.Expr, info *types.Info) bool {
	ia, _ := ast.Unparen(a).(*ast.Ident)
	ib, _ := ast.Unparen(b).(*ast.Ident)
	return ia != nil && ib != nil && info.ObjectOf(ib) != nil && info.ObjectOf(ia) == info.ObjectOf(ib)
}

// rootVar returns the variable an assignment target is reached from —
// x for x, x.f, x[i], *x and their combinations — or nil.
func rootVar(e ast.Expr, info *types.Info) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			v, _ := info.Uses[x].(*types.Var)
			return v
		default:
			return nil
		}
	}
}

// addsTo reports whether e is a sum or difference with an operand reached
// from v: the right side of `x = x + …`.
func addsTo(e ast.Expr, v *types.Var, info *types.Info) bool {
	bin, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if v == nil || !ok || bin.Op != token.ADD && bin.Op != token.SUB {
		return false
	}
	return rootVar(bin.X, info) == v || rootVar(bin.Y, info) == v || addsTo(bin.X, v, info) || addsTo(bin.Y, v, info)
}

// isFloat reports whether t is a floating-point type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// stdInterfaces counts every method of every interface the standard
// library declares, in the packages p reaches, as called.
func (s *exportScan) stdInterfaces(p *types.Package, seen map[*types.Package]bool) {
	for _, imp := range p.Imports() {
		if seen[imp] {
			continue
		}
		seen[imp] = true
		if _, ours := s.dirs[imp.Path()]; !ours {
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && types.IsInterface(tn.Type()) {
					iface := tn.Type().Underlying().(*types.Interface)
					for i := range iface.NumMethods() {
						s.call(iface.Method(i))
					}
				}
			}
		}
		s.stdInterfaces(imp, seen)
	}
}

// implementsCalled reports whether method m implements an interface
// method that non-test code calls, on its receiver's type or on a type
// that promotes it by embedding.
func (s *exportScan) implementsCalled(m *types.Func) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, _ := recv.(*types.Named)
	if named == nil || named.TypeParams().Len() > 0 {
		return len(s.called[m.Name()]) > 0 // a generic receiver: the name is evidence enough
	}
	holders := []*types.Named{named}
	for _, p := range s.pkgs {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Type() != named {
				if t, ok := tn.Type().(*types.Named); ok && t.TypeParams().Len() == 0 {
					if obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), true, m.Pkg(), m.Name()); obj == m {
						holders = append(holders, t)
					}
				}
			}
		}
	}
	for _, im := range s.called[m.Name()] {
		iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		for _, t := range holders {
			for _, v := range []types.Type{t, types.NewPointer(t)} {
				if iface.IsMethodSet() && types.Implements(v, iface) || !iface.IsMethodSet() && types.Satisfies(v, iface) {
					return true
				}
			}
		}
	}
	return false
}

// exported lists the names TestExportsAreUsed holds to a use in another
// package, for the internal/ package p: its exported funcs, types,
// consts and vars, the exported methods of its named types (an
// interface's only when the interface is exported) and the exported
// fields of its *Config and *Options structs — each keyed `pkg.Name`,
// `pkg.Type.Method` or `pkg.Type.Field`, pkg relative to internal/.
func (s *exportScan) exported(p *types.Package) map[string]types.Object {
	rel := strings.TrimPrefix(p.Path(), "armnet/internal/")
	names := map[string]types.Object{}
	for _, name := range p.Scope().Names() {
		obj := p.Scope().Lookup(name)
		if obj.Exported() {
			names[rel+"."+name] = obj
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := tn.Type().(*types.Named)
		if iface, ok := named.Underlying().(*types.Interface); ok {
			for i := range iface.NumExplicitMethods() {
				if m := iface.ExplicitMethod(i); m.Exported() && obj.Exported() {
					names[rel+"."+name+"."+m.Name()] = m
				}
			}
			continue
		}
		for i := range named.NumMethods() {
			if m := named.Method(i); m.Exported() {
				names[rel+"."+name+"."+m.Name()] = m
			}
		}
		if st, ok := named.Underlying().(*types.Struct); ok && obj.Exported() && (strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
			for i := range st.NumFields() {
				if f := st.Field(i); f.Exported() {
					names[rel+"."+name+"."+f.Name()] = f
				}
			}
		}
	}
	return names
}

// used reports whether a non-test file of another package references
// obj, or obj is a method that implements an interface method non-test
// code calls, or an interface method a type of another package implements.
func (s *exportScan) used(obj types.Object) bool {
	if len(s.users[obj]) > 0 {
		return true
	}
	m, ok := obj.(*types.Func)
	if !ok || m.Type().(*types.Signature).Recv() == nil {
		return false
	}
	recv := m.Type().(*types.Signature).Recv().Type()
	if !types.IsInterface(recv) {
		return s.implementsCalled(m)
	}
	iface := recv.Underlying().(*types.Interface)
	for _, p := range s.pkgs {
		if p == obj.Pkg() {
			continue
		}
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if ok && !types.IsInterface(tn.Type()) && (types.Implements(tn.Type(), iface) || types.Implements(types.NewPointer(tn.Type()), iface)) {
				return true
			}
		}
	}
	return false
}

// unusedExports lists the exported names of internal/ no other package's
// non-test code uses, and logs the per-package counts.
func unusedExports(t *testing.T, s *exportScan) []string {
	var unused []string
	total := 0
	for _, p := range sortedKeys(s.pkgs) {
		if !strings.HasPrefix(p, "armnet/internal/") {
			continue
		}
		names := s.exported(s.pkgs[p])
		for name, obj := range names {
			if !s.used(obj) {
				unused = append(unused, name)
			}
		}
		total += len(names)
		t.Logf("exported names %-16s %4d", strings.TrimPrefix(p, "armnet/internal/"), len(names))
	}
	t.Logf("exported names in internal/: %d", total)
	slices.Sort(unused)
	return unused
}

// configFields lists, keyed `pkg.Type.Field`, every field of every struct
// type of the root module (bench/'s own types exempt) named *Config,
// *Options, *config or *options that no file — test files and bench/
// included — writes outside the methods of its own type, and logs how
// many such fields there are and how many of them are exported.
func configFields(t *testing.T, s *exportScan) []string {
	var unwritten []string
	total, exported := 0, 0
	for _, p := range sortedKeys(s.pkgs) {
		if p == "armnet/bench" || strings.HasPrefix(p, "armnet/bench/") {
			continue
		}
		pkg := s.pkgs[p]
		rel := strings.TrimPrefix(strings.TrimPrefix(p, "armnet/internal/"), "armnet/")
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			lower := strings.ToLower(name)
			if !ok || tn.IsAlias() || !strings.HasSuffix(lower, "config") && !strings.HasSuffix(lower, "options") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := range st.NumFields() {
				f := st.Field(i)
				total++
				if f.Exported() && tn.Exported() {
					exported++
				}
				setters := len(s.writers[f.Pos()])
				if s.writers[f.Pos()][tn.Pos()] {
					setters-- // the type's own methods (withDefaults) set no knob
				}
				if setters == 0 {
					unwritten = append(unwritten, rel+"."+name+"."+f.Name())
				}
			}
		}
	}
	t.Logf("config fields: %d (%d exported)", total, exported)
	return unwritten
}

// exportAllowlist holds the exported names of internal/ that no other
// package's non-test code uses but that stay exported, and the config
// fields nothing but their own type's methods writes, each with its
// reason; an entry without a dot covers a whole package.
var exportAllowlist = map[string]string{
	"sched":     "ROADMAP item 8 (packets under the walk) decides the packet-level packages",
	"dataplane": "ROADMAP item 8 (packets under the walk) decides the packet-level packages",

	"mobility.Trace.Validate": "test oracle: cmd/tracegen's tests validate the traces it writes",
	"raceflag.Enabled":        "test oracle: allocation-budget tests of other packages skip under -race",
	"leakcheck":               "test oracle: the clock, testnet and telemetry-server lifecycle tests wait on it for their goroutines to exit",
	"telemetry.NewHandler":    "test oracle: the armsim and armnode tests serve the mux without a socket",
	"testnet.CampusScript":    "test oracle: bench/'s own tests call it",
	"qos.ErrBandwidthBounds":  "errors.Is sentinel: core's tests match OpenConnection's refusal with it",

	"topology.backboneOptions.WiredCapacity": "input decoded from JSON: the backbone section of a topology file",
	"topology.backboneOptions.WiredDelay":    "input decoded from JSON: the backbone section of a topology file",
	"topology.backboneOptions.WirelessLoss":  "input decoded from JSON: the backbone section of a topology file",
}

// TestExportsAreUsed holds the export surface of internal/ to its use
// surface: every exported func, type, method, const and var of an
// internal/ package, and every exported field of a *Config or *Options
// struct, must be referenced by a non-test file of another package of
// the root module or of bench/ — or, for a method, implement an
// interface method that non-test code calls — unless exportAllowlist
// says why not. A name only its own package uses is unexported; a name
// nothing uses is deleted. And a knob needs a setter: every field of a
// *Config, *Options, *config or *options struct of the root module must
// be written by some file, test files and bench/ included, outside the
// methods of its own type — a field only withDefaults fills becomes a
// named constant. Run with -v for the per-package counts, the config
// field count and the number of exemptions.
func TestExportsAreUsed(t *testing.T) {
	s := scanExports(t)
	needed := map[string]bool{}
	check := func(names []string, complaint string) {
		for _, name := range names {
			pkg := name[:strings.Index(name, ".")]
			switch {
			case exportAllowlist[name] != "":
				needed[name] = true
			case exportAllowlist[pkg] != "":
				needed[pkg] = true
			default:
				t.Errorf("%s %s", name, complaint)
			}
		}
	}
	check(unusedExports(t, s), "is exported, but no non-test code of another package uses it")
	check(configFields(t, s), "is a config field only its own type's methods write: make it a constant")
	t.Logf("export exemptions: %d", len(exportAllowlist))
	for name := range exportAllowlist {
		if !needed[name] {
			t.Errorf("exportAllowlist holds %s, which is used or gone: drop the entry", name)
		}
	}

	t.Run("bench is a user", func(t *testing.T) {
		for _, name := range []string{"wire.Encode", "des.Simulator.Run"} {
			var obj types.Object
			for _, p := range s.pkgs {
				if o, ok := s.exported(p)[name]; ok {
					obj = o
				}
			}
			if users := sortedKeys(s.users[obj]); !slices.Equal(users, []string{"armnet/bench"}) {
				t.Errorf("%s is used by %v, want bench/ alone — pick another name bench/ alone uses", name, users)
			}
		}
	})
}

// mapSumAllowlist holds the functions, keyed `pkg.Func` or
// `pkg.Type.Method` (pkg relative to internal/), whose float sum over a map range TestNoFloatSumOverMapRange
// lets stand, each with its reason.
var mapSumAllowlist = map[string]string{}

// TestNoFloatSumOverMapRange bars the incident class of a float total
// taken in map order: a range over a map in the root module's non-test
// code whose body accumulates into a float declared outside the loop
// (`+=`, `-=`, `x = x ± …`). Map order is random and float addition is
// not associative, so the total's last bits can differ between two runs
// of the same seed. Add through a stats.Sum, whose correctly rounded
// total does not depend on order, or iterate sortx.Keys; a site that must
// stay goes in mapSumAllowlist with its reason.
func TestNoFloatSumOverMapRange(t *testing.T) {
	s := scanExports(t)
	for _, name := range sortedKeys(s.mapSums) {
		if mapSumAllowlist[name] != "" {
			continue
		}
		for _, pos := range s.mapSums[name] {
			t.Errorf("%s: %s sums floats in map order", s.fset.Position(pos), name)
		}
	}
	for name := range mapSumAllowlist {
		if _, ok := s.mapSums[name]; !ok {
			t.Errorf("mapSumAllowlist holds %s, which sums no float over a map range: drop the entry", name)
		}
	}
}

// goldenSections splits paperfigs' pinned `-exp all` output into its
// `==== name ====` sections, each a list of lines.
func goldenSections(t *testing.T) map[string][]string {
	t.Helper()
	raw, err := os.ReadFile("cmd/paperfigs/testdata/all.golden")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]string{}
	var cur string
	for _, line := range strings.Split(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "==== "); ok {
			cur = strings.TrimSuffix(name, " ====")
			continue
		}
		if cur != "" && strings.TrimSpace(line) != "" {
			out[cur] = append(out[cur], line)
		}
	}
	return out
}

// goldenFigure returns the value in column col of the table row whose
// first field is row, in the named section of all.golden. Columns are
// counted from the right, as only a table's first column has spaces.
func goldenFigure(t *testing.T, sections map[string][]string, section, row, col string) float64 {
	t.Helper()
	lines := sections[section]
	var header []string
	for _, line := range lines {
		f := strings.Fields(line)
		if header == nil && slices.Contains(f, col) {
			header = f
			continue
		}
		if header == nil || len(f) == 0 || f[0] != row {
			continue
		}
		fromEnd := len(header) - slices.Index(header, col)
		v, err := strconv.ParseFloat(f[len(f)-fromEnd], 64)
		if err != nil {
			t.Fatalf("all.golden %s: row %q column %s: %v", section, row, col, err)
		}
		return v
	}
	t.Fatalf("all.golden %s: no row %q under a %s column", section, row, col)
	return 0
}

// goldenPairs reads a key=value line of the named section whose first
// pair is first.
func goldenPairs(t *testing.T, sections map[string][]string, section, first string) map[string]string {
	t.Helper()
	for _, line := range sections[section] {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != first {
			continue
		}
		kv := map[string]string{}
		for _, pair := range f {
			k, v, _ := strings.Cut(pair, "=")
			kv[k] = v
		}
		return kv
	}
	t.Fatalf("all.golden %s: no line starting %q", section, first)
	return nil
}

// thousands formats n with comma separators, as the prose writes counts.
func thousands(n int) string {
	s := strconv.Itoa(n)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}

// TestDocumentedFiguresMatchGolden holds the figures EXPERIMENTS.md quotes
// outside its output blocks — the extension table's campus, bounds and
// T_th rows and Theorem 1's message saving — to the paperfigs output
// pinned in cmd/paperfigs/testdata/all.golden. Each figure is derived
// from the golden and rendered as the prose writes it; the line the
// anchor finds must contain that text, so a changed digit on either side
// fails and names the line.
func TestDocumentedFiguresMatchGolden(t *testing.T) {
	g := goldenSections(t)
	pct := func(x float64, decimals int) string { return strconv.FormatFloat(100*x, 'f', decimals, 64) + "%" }
	figure := func(section, row, col string) float64 { return goldenFigure(t, g, section, row, col) }
	plain := goldenPairs(t, g, "theorem1", "refined=false")["messages"]
	refined := goldenPairs(t, g, "theorem1", "refined=true")["messages"]
	before, err1 := strconv.Atoi(plain)
	after, err2 := strconv.Atoi(refined)
	if err1 != nil || err2 != nil {
		t.Fatalf("theorem1 message counts %q and %q", plain, refined)
	}
	claims := []struct{ anchor, want string }{
		{"| Integrated campus mode comparison |", "predictive mode: " + pct(figure("campus", "predictive", "pred-share"), 0) +
			" of handoffs on the fast (reserved) path"},
		{"| Integrated campus mode comparison |", "brute force (" + pct(figure("campus", "brute-force", "pred-share"), 0) + " fast path)"},
		{"| Loose vs rigid QoS bounds (§2.1) |", "loose bounds overcommit " + pct(figure("bounds", "loose", "overcommit-time"), 2) +
			" of the time at " + pct(figure("bounds", "loose", "mean-utilization"), 1) + " utilization"},
		{"| Loose vs rigid QoS bounds (§2.1) |", "rigid midpoint reservations overcommit " + pct(figure("bounds", "rigid", "overcommit-time"), 0) +
			" of the time at " + pct(figure("bounds", "rigid", "mean-utilization"), 0)},
		{"| T_th sensitivity |", "predicted-handoff share " + pct(figure("tth", "30", "pred-share"), 1) + " at T_th=30 s vs " +
			pct(figure("tth", "900", "pred-share"), 1) + " at T_th=900 s"},
		{"cuts control messages by", "cuts control messages by " + strconv.FormatFloat(100*(1-float64(after)/float64(before)), 'f', 1, 64) +
			" % on these instances, " + thousands(before) + " → " + thousands(after)},
	}
	raw, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	for _, c := range claims {
		n := slices.IndexFunc(lines, func(l string) bool { return strings.Contains(l, c.anchor) })
		if n < 0 {
			t.Errorf("EXPERIMENTS.md: no line holds %q; the figure %q has nowhere to live", c.anchor, c.want)
			continue
		}
		if !strings.Contains(lines[n], c.want) {
			t.Errorf("EXPERIMENTS.md:%d should read %q, as all.golden gives it:\n%s", n+1, c.want, lines[n])
		}
	}
}
