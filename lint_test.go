package atcsim

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"

	"atcsim/internal/metrics"
	"atcsim/internal/simserver"
	"atcsim/internal/system"
	"atcsim/internal/telemetry"
	"atcsim/internal/xlat"
)

// TestLint is the repo's style gate: gofmt must be clean and go vet silent
// across every package. It shells out to the toolchain, so it is skipped
// under -short (and wherever the go tool is unavailable).
func TestLint(t *testing.T) {
	if testing.Short() {
		t.Skip("lint gate skipped in -short mode")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}

	t.Run("gofmt", func(t *testing.T) {
		out, err := exec.Command(gobin, "run", "cmd/gofmt", "-l", ".").Output()
		if err != nil {
			// cmd/gofmt may be unavailable in trimmed toolchains; fall back
			// to a standalone gofmt binary.
			if path, lookErr := exec.LookPath("gofmt"); lookErr == nil {
				out, err = exec.Command(path, "-l", ".").Output()
			}
			if err != nil {
				t.Skipf("gofmt unavailable: %v", err)
			}
		}
		if files := bytes.TrimSpace(out); len(files) > 0 {
			t.Errorf("gofmt -l flags files:\n%s", files)
		}
	})

	t.Run("vet", func(t *testing.T) {
		cmd := exec.Command(gobin, "vet", "./...")
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = &buf
		if err := cmd.Run(); err != nil {
			t.Errorf("go vet: %v\n%s", err, buf.Bytes())
		}
	})
}

// receiverExported reports whether a method's receiver names an exported
// type (methods on unexported types are not part of the package's godoc
// surface).
func receiverExported(fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return true
	}
	typ := fn.Recv.List[0].Type
	for {
		switch u := typ.(type) {
		case *ast.StarExpr:
			typ = u.X
		case *ast.IndexExpr:
			typ = u.X
		case *ast.Ident:
			return u.IsExported()
		default:
			return true
		}
	}
}

// TestGodocCoverage is the documentation gate for the translation stack:
// every exported symbol in internal/xlat, internal/tlb and internal/ptw
// must carry a doc comment. These are the packages docs/TRANSLATION.md
// walks through, so an undocumented export there is a guide with a hole
// in it.
func TestGodocCoverage(t *testing.T) {
	for _, dir := range []string{"internal/xlat", "internal/tlb", "internal/ptw"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		missing := func(pos token.Pos, kind, name string) {
			p := fset.Position(pos)
			t.Errorf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					switch d := decl.(type) {
					case *ast.FuncDecl:
						if d.Name.IsExported() && receiverExported(d) && d.Doc == nil {
							missing(d.Pos(), "func", d.Name.Name)
						}
					case *ast.GenDecl:
						if d.Tok == token.IMPORT {
							continue
						}
						for _, spec := range d.Specs {
							switch s := spec.(type) {
							case *ast.TypeSpec:
								if s.Name.IsExported() && s.Doc == nil && d.Doc == nil {
									missing(s.Pos(), "type", s.Name.Name)
								}
								// Exported fields of exported structs are
								// part of the surface too.
								if st, ok := s.Type.(*ast.StructType); ok && s.Name.IsExported() {
									for _, fld := range st.Fields.List {
										for _, n := range fld.Names {
											if n.IsExported() && fld.Doc == nil && fld.Comment == nil {
												missing(n.Pos(), "field", s.Name.Name+"."+n.Name)
											}
										}
									}
								}
							case *ast.ValueSpec:
								for _, n := range s.Names {
									if n.IsExported() && s.Doc == nil && s.Comment == nil && d.Doc == nil {
										missing(n.Pos(), "value", n.Name)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestTranslationDocCoversMechanisms is the doc-lint half of the mechanism
// registry: docs/TRANSLATION.md must mention every registered mechanism by
// name (registering a fourth mechanism without documenting it fails here),
// and the guide must be reachable from README.md and docs/ARCHITECTURE.md.
func TestTranslationDocCoversMechanisms(t *testing.T) {
	guide, err := os.ReadFile("docs/TRANSLATION.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range xlat.Names() {
		if !bytes.Contains(guide, []byte("`"+name+"`")) {
			t.Errorf("docs/TRANSLATION.md does not document registered mechanism %q", name)
		}
	}
	for _, linker := range []string{"README.md", "docs/ARCHITECTURE.md", "DESIGN.md"} {
		b, err := os.ReadFile(linker)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(b, []byte("TRANSLATION.md")) {
			t.Errorf("%s does not link docs/TRANSLATION.md", linker)
		}
	}
}

// flagDefRe matches flag definitions in the CLI sources; the README tables
// must list exactly these names.
var flagDefRe = regexp.MustCompile(`(?:flag|fs)\.(?:String|Bool|Int|Int64|Float64|Duration)\("([a-z0-9-]+)"`)

// readmeRowRe matches one flag row of a README markdown table.
var readmeRowRe = regexp.MustCompile("(?m)^\\| `-([a-z0-9-]+)` \\|")

// TestREADMEFlagTables diffs the README's per-tool flag tables against the
// flag definitions in the sources, both directions, so the CLI reference
// cannot silently drift again (the -metrics-addr/-metrics-log/-log-level
// trio once existed only in the code).
func TestREADMEFlagTables(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, tool := range []struct{ heading, source string }{
		{"#### `cmd/atcsim` flags", "cmd/atcsim/main.go"},
		{"#### `cmd/figures` flags", "internal/figurescli/figurescli.go"},
		{"#### `cmd/atcsimd` flags", "cmd/atcsimd/main.go"},
	} {
		src, err := os.ReadFile(tool.source)
		if err != nil {
			t.Fatal(err)
		}
		inCode := map[string]bool{}
		for _, m := range flagDefRe.FindAllSubmatch(src, -1) {
			inCode[string(m[1])] = true
		}
		if len(inCode) == 0 {
			t.Fatalf("no flag definitions found in %s — regex drift?", tool.source)
		}

		start := bytes.Index(readme, []byte(tool.heading))
		if start < 0 {
			t.Errorf("README.md lacks a %q section", tool.heading)
			continue
		}
		section := readme[start+len(tool.heading):]
		if end := bytes.Index(section, []byte("\n#### ")); end >= 0 {
			section = section[:end]
		}
		if end := bytes.Index(section, []byte("\n### ")); end >= 0 {
			section = section[:end]
		}
		inTable := map[string]bool{}
		for _, m := range readmeRowRe.FindAllSubmatch(section, -1) {
			inTable[string(m[1])] = true
		}
		for name := range inCode {
			if !inTable[name] {
				t.Errorf("%s defines -%s but the README %s table does not list it", tool.source, name, tool.heading)
			}
		}
		for name := range inTable {
			if !inCode[name] {
				t.Errorf("README %s table lists -%s but %s does not define it", tool.heading, name, tool.source)
			}
		}
	}
}

// TestUsageDocMentionsFlags keeps each command's package doc comment honest:
// the prose usage examples must only reference flags that exist (catching
// the stale-usage drift this repo once shipped), and key observability
// flags must be shown somewhere in the examples.
func TestUsageDocMentionsFlags(t *testing.T) {
	for _, tool := range []struct {
		docFile, source string
		mustShow        []string
	}{
		{"cmd/atcsim/main.go", "cmd/atcsim/main.go",
			[]string{"-mechanism", "-timing", "-metrics-addr", "-metrics-log", "-trace-out"}},
		{"cmd/figures/main.go", "internal/figurescli/figurescli.go",
			[]string{"-list-mechanisms", "-timing", "-metrics-addr", "-log-level", "-flight-recorder"}},
		{"cmd/atcsimd/main.go", "cmd/atcsimd/main.go",
			[]string{"-admit-rate", "-admit-queue", "-admit-burst", "-drain-grace", "-flight-recorder"}},
	} {
		src, err := os.ReadFile(tool.source)
		if err != nil {
			t.Fatal(err)
		}
		defined := map[string]bool{}
		for _, m := range flagDefRe.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}

		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, tool.docFile, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		if f.Doc == nil {
			t.Errorf("%s has no package doc comment", tool.docFile)
			continue
		}
		doc := f.Doc.Text()
		// Only dashes that start a word are flag references; hyphenated
		// prose ("trace-event", "in-flight") must not match.
		for _, m := range regexp.MustCompile("(?:^|[\\s(`])-([a-z][a-z0-9-]+)\\b").FindAllStringSubmatch(doc, -1) {
			if name := m[1]; !defined[name] {
				t.Errorf("%s package doc mentions -%s, which %s does not define",
					tool.docFile, name, tool.source)
			}
		}
		for _, want := range tool.mustShow {
			if !strings.Contains(doc, want) {
				t.Errorf("%s package doc never shows %s", tool.docFile, want)
			}
		}
	}
}

// TestServiceDocCoverage is the doc-lint half of the sweep service:
// docs/SERVICE.md must mention every route the server actually mounts and
// every simserver_* metric family it registers (adding an endpoint or a
// series without documenting it fails here), and the service guide must be
// reachable from README.md, EXPERIMENTS.md and DESIGN.md.
func TestServiceDocCoverage(t *testing.T) {
	guide, err := os.ReadFile("docs/SERVICE.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, route := range simserver.Routes() {
		if !bytes.Contains(guide, []byte("`"+route+"`")) {
			t.Errorf("docs/SERVICE.md does not document route %q", route)
		}
	}
	for _, family := range simserver.MetricFamilies() {
		if !bytes.Contains(guide, []byte("`"+family+"`")) {
			t.Errorf("docs/SERVICE.md does not document metric family %q", family)
		}
	}
	for _, linker := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		b, err := os.ReadFile(linker)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(b, []byte("SERVICE.md")) {
			t.Errorf("%s does not link docs/SERVICE.md", linker)
		}
	}
}

// TestOpenMetricsExposition is the observability gate: the full production
// series set — everything the engine registers when a sweep runs with
// -metrics-addr, plus the live sim_* gauges atcsim serves — must render as
// lint-clean OpenMetrics text. It builds the same registry surface the
// experiment runner and atcsim wire up, without running any simulation.
func TestOpenMetricsExposition(t *testing.T) {
	reg := metrics.New()
	new(telemetry.Health).RegisterMetrics(reg)
	system.NewMetricsSink(reg)
	system.NewLiveGauges(reg)
	metrics.NewRunTable().Register(reg)
	metrics.NewFlightRecorder(0).Register(reg)

	var buf bytes.Buffer
	if err := reg.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if issues := metrics.Lint(buf.Bytes()); len(issues) > 0 {
		t.Errorf("exposition does not lint clean:\n%s", strings.Join(issues, "\n"))
	}
	if n := reg.Len(); n < 25 {
		t.Errorf("full registry has %d series, want >= 25", n)
	}
}
