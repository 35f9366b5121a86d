package road_test

import (
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestExportedSymbolsDocumented enforces the documentation contract of
// the public package: every exported type, function, method, and
// const/var group in package road carries a doc comment. It is the
// test-shaped half of the CI docs-lint step (gofmt + staticcheck
// ST-class checks cover formatting and comment form; this covers
// presence, which staticcheck does not).
func TestExportedSymbolsDocumented(t *testing.T) {
	d := rootPackageDoc(t)
	var missing []string
	requireDoc := func(kind, name, docText string) {
		if !ast.IsExported(name) {
			return
		}
		if strings.TrimSpace(docText) == "" {
			missing = append(missing, kind+" "+name)
		}
	}
	for _, f := range d.Funcs {
		requireDoc("func", f.Name, f.Doc)
	}
	for _, typ := range d.Types {
		requireDoc("type", typ.Name, typ.Doc)
		for _, f := range typ.Funcs {
			requireDoc("func", f.Name, f.Doc)
		}
		for _, m := range typ.Methods {
			requireDoc("method", typ.Name+"."+m.Name, m.Doc)
		}
		for _, grp := range append(append([]*doc.Value(nil), typ.Consts...), typ.Vars...) {
			for _, name := range grp.Names {
				requireDoc("value", name, grp.Doc+declDoc(grp.Decl, name))
			}
		}
	}
	for _, grp := range append(append([]*doc.Value(nil), d.Consts...), d.Vars...) {
		for _, name := range grp.Names {
			requireDoc("value", name, grp.Doc+declDoc(grp.Decl, name))
		}
	}
	if len(missing) > 0 {
		t.Fatalf("exported symbols without doc comments:\n  %s", strings.Join(missing, "\n  "))
	}
}

// rootPackageDoc parses the public package's non-test sources.
func rootPackageDoc(t *testing.T) *doc.Package {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["road"]
	if !ok {
		t.Fatalf("package road not found; parsed %v", pkgs)
	}
	return doc.New(pkg, "road", 0)
}

// exportedNames lists the package-level names package road exports:
// types, functions (constructors included), constants and variables.
func exportedNames(d *doc.Package) map[string]bool {
	names := map[string]bool{}
	addValues := func(groups []*doc.Value) {
		for _, grp := range groups {
			for _, name := range grp.Names {
				names[name] = true
			}
		}
	}
	for _, f := range d.Funcs {
		names[f.Name] = true
	}
	for _, typ := range d.Types {
		names[typ.Name] = true
		for _, f := range typ.Funcs {
			names[f.Name] = true
		}
		addValues(typ.Consts)
		addValues(typ.Vars)
	}
	addValues(d.Consts)
	addValues(d.Vars)
	return names
}

// declDoc returns the per-spec doc or line comment of one name inside a
// grouped const/var declaration, so a documented group member counts
// even when the group itself has no doc block.
func declDoc(decl *ast.GenDecl, name string) string {
	for _, spec := range decl.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, n := range vs.Names {
			if n.Name == name {
				var out string
				if vs.Doc != nil {
					out += vs.Doc.Text()
				}
				if vs.Comment != nil {
					out += vs.Comment.Text()
				}
				return out
			}
		}
	}
	return ""
}

var (
	fencedBlock  = regexp.MustCompile("(?s)```.*?```")
	inlineCode   = regexp.MustCompile("`([^`]+)`")
	cmdDirRef    = regexp.MustCompile(`\bcmd/([a-z]+)`)
	rootSymbol   = regexp.MustCompile(`\broad\.([A-Z]\w*)`)
	rootArtefact = regexp.MustCompile(`^[A-Z][^/\s]*\.json$`)
	flagToken    = regexp.MustCompile(`^--?([a-z][a-z0-9-]*)`)
	flagDecl     = regexp.MustCompile(`flag\.\w+\(\s*(?:&[\w.]+,\s*)?"([^"]+)"`)
)

// TestDocsReferToWhatExists is the referential-integrity guard of the
// prose docs: every `cmd/<name>` they put in backticks is a directory,
// every `road.<Name>` is a symbol the root package exports, every
// upper-case `NAME.json` (the repository's root artefacts; `*` globs) is
// a file at the root, and every flag they attach to a command
// (`roadd -shards 4`) — or name on its own (`-shards K`) — is registered
// by that command's (some command's, or the benchmark harness's) flag
// set. A deletion that leaves a stale sentence behind, or a doc that
// resurrects a removed mode, fails here. MIGRATION.md is exempt: naming
// removed things is its job.
func TestDocsReferToWhatExists(t *testing.T) {
	// Flags the docs may name that belong to the go tool, not to cmd/.
	toolFlags := map[string]bool{"race": true}

	flags := map[string]map[string]bool{} // command -> registered flag names
	anyFlag := map[string]bool{}          // union over every command and the harness
	register := func(name, dir string) {
		srcs, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		flags[name] = map[string]bool{}
		for _, src := range srcs {
			body, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range flagDecl.FindAllStringSubmatch(string(body), -1) {
				flags[name][m[1]] = true
				anyFlag[m[1]] = true
			}
		}
	}
	dirs, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		register(d.Name(), filepath.Join("cmd", d.Name()))
	}
	// The referee's harness, as benchmark/run.sh builds it.
	register("roadbenchmark", "benchmark")
	exported := exportedNames(rootPackageDoc(t))

	for _, path := range []string{"README.md", "ARCHITECTURE.md", "internal/shard/DESIGN.md"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prose := fencedBlock.ReplaceAllString(string(raw), "")
		for _, m := range inlineCode.FindAllStringSubmatch(prose, -1) {
			span := m[1]
			for _, ref := range cmdDirRef.FindAllStringSubmatch(span, -1) {
				if fi, err := os.Stat(filepath.Join("cmd", ref[1])); err != nil || !fi.IsDir() {
					t.Errorf("%s: `%s` names cmd/%s, which does not exist", path, span, ref[1])
				}
			}
			for _, ref := range rootSymbol.FindAllStringSubmatch(span, -1) {
				if !exported[ref[1]] {
					t.Errorf("%s: `%s` names road.%s, which package road does not export", path, span, ref[1])
				}
			}
			cmd := "" // the command the flags seen so far belong to
			for i, tok := range strings.Fields(span) {
				if rootArtefact.MatchString(tok) {
					if hits, _ := filepath.Glob(tok); len(hits) == 0 {
						t.Errorf("%s: `%s` names %s, which is not at the repository root", path, span, tok)
					}
				}
				if base := tok[strings.LastIndex(tok, "/")+1:]; flags[base] != nil {
					cmd = base
					continue
				}
				f := flagToken.FindStringSubmatch(tok)
				switch {
				case f == nil:
				case cmd != "" && !flags[cmd][f[1]]:
					t.Errorf("%s: `%s` names %s -%s, which cmd/%s does not register", path, span, cmd, f[1], cmd)
				case cmd == "" && i == 0 && !anyFlag[f[1]] && !toolFlags[f[1]]:
					t.Errorf("%s: `%s` names flag -%s, which no command registers", path, span, f[1])
				}
			}
		}
	}
}
