package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
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

	"abc/internal/cc"
	"abc/internal/qdisc"
	"abc/internal/sim"
)

// noGoldenRow names every table driver the golden corpus does not
// digest, with the reason. A driver must be in the corpus or here:
// dropping out of both silently is what TestDriverTable forbids. Every
// one of these still runs and prints under TestDriverTable.
var noGoldenRow = map[string]string{
	"table1":    "a pure function of the bars fig9-bars digests (SummaryTable)",
	"fig3":      "two fixed 250 s runs; their shape is claim fig3/ai-fairness",
	"fig4":      "fixed-length Wi-Fi characterization; its slope is claim fig4/tia-slope",
	"fig5":      "fixed-length Wi-Fi sweep; its backlogged accuracy is claim fig5/backlogged-prediction",
	"fig7":      "fixed 200 s run; its sharing and queue split are claim fig7/dual-queue-share",
	"fig13":     "its utilisation and app-limited throughput are claim fig13/app-limited",
	"fig14":     "fig10-wifi digests the same runWiFi path; only the MCS walk differs",
	"fig15":     "prints another column of the bars fig9-bars digests",
	"fig16":     "fig9-bars digests the same fig9Bars path; only the scheme set differs",
	"fig18":     "its delay ordering is claim fig18/rtt, its utilisation claim fig18/util",
	"jain":      "62 flows over five fixed 60 s runs; its lowest index is claim jain/min-index",
	"ablations": "its dt and eta trade-offs are claim ablations/tradeoffs",
	"proxied":   "its equivalence to the NS-bit encoding is claim proxied/equivalent",
	"pkabc":     "its delay cut and utilisation cost are claim pkabc/future-knowledge",
	"schemes":   "lists the registries, runs nothing",
}

// TestDriverTable is the "does every driver still run" check for the
// whole catalogue: unique names, a Run that returns something
// serializable at a short duration, a Print that writes something and
// writes it the same way twice, and a golden corpus that names only
// table drivers and misses none without saying why.
func TestDriverTable(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range Drivers {
		d := d
		if seen[d.Name] {
			t.Errorf("duplicate driver name %q", d.Name)
		}
		seen[d.Name] = true
		t.Run(d.Name, func(t *testing.T) {
			if d.Paper == "" || d.Desc == "" {
				t.Errorf("index columns incomplete: paper=%q desc=%q", d.Paper, d.Desc)
			}
			v, err := d.Run(Params{Seed: 1, Dur: 4 * sim.Second, Runs: 1})
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			if len(b) <= 2 {
				t.Fatalf("result serialized to %d bytes", len(b))
			}
			var first, second bytes.Buffer
			d.Print(&first, v)
			d.Print(&second, v)
			if first.Len() == 0 {
				t.Error("Print wrote nothing")
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Errorf("Print is not deterministic:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
			}
		})
	}

	inCorpus := map[string]bool{}
	for _, c := range goldenCases() {
		if _, ok := Lookup(c.driver); !ok {
			t.Errorf("golden case %q names no table driver (%q)", c.name, c.driver)
		}
		inCorpus[c.driver] = true
	}
	for _, d := range Drivers {
		_, excused := noGoldenRow[d.Name]
		switch {
		case inCorpus[d.Name] && excused:
			t.Errorf("driver %q has a corpus row and a noGoldenRow excuse; drop the excuse", d.Name)
		case !inCorpus[d.Name] && !excused:
			t.Errorf("driver %q has no golden corpus row and no noGoldenRow entry saying why", d.Name)
		}
	}
	for name := range noGoldenRow {
		if !seen[name] {
			t.Errorf("noGoldenRow names %q, which is not a driver", name)
		}
	}
}

// TestRegistryIsTheEvaluation: the registries hold only what an
// experiment runs. Every registered scheme is in one of the comparison
// sets, or is one of the two ABC variants a driver names itself; every
// qdisc kind is some scheme's paired discipline, the droptail default or
// a dual-queue composite.
func TestRegistryIsTheEvaluation(t *testing.T) {
	run := map[string]bool{"ABC-MIMD": true, "ABC-proxied": true}
	for _, set := range [][]string{Schemes, explicitSchemes, appSchemes} {
		for _, s := range set {
			run[s] = true
		}
	}
	paired := map[string]bool{"droptail": true}
	for _, s := range cc.SchemeNames() {
		if !run[s] {
			t.Errorf("scheme %q is registered but no comparison set runs it", s)
		}
		paired[cc.QdiscFor(s)] = true
	}
	for _, k := range qdisc.Kinds() {
		if !paired[k] && !strings.HasPrefix(k, "dual-") {
			t.Errorf("qdisc kind %q is registered but no scheme is paired with it", k)
		}
	}
}

// TestReportPlacesEveryClaim: a claim lives on a report placement
// (Placement.Claims), so `abcsim -report` prints every verdict under
// the result it reads, if every placement names a section of
// ReportSections; and every section holds one.
func TestReportPlacesEveryClaim(t *testing.T) {
	used := map[string]bool{}
	for _, d := range Drivers {
		for _, pl := range d.Report {
			if !slices.Contains(ReportSections, pl.Section) {
				t.Errorf("driver %q is placed under %q, which is not in ReportSections", d.Name, pl.Section)
			}
			used[pl.Section] = true
		}
	}
	for i, s := range ReportSections {
		if !used[s] {
			t.Errorf("report section %q holds no placement", s)
		}
		if slices.Index(ReportSections, s) != i {
			t.Errorf("report section %q is listed twice", s)
		}
	}
}

// TestReportViews: a placement that views another run (Placement.From)
// names a row placed once, as a run, in the same section, and its row's
// Of turns that row's result into exactly what the row's own Run
// returns, so the report prints the same bytes as running it again.
func TestReportViews(t *testing.T) {
	views := 0
	for _, d := range Drivers {
		for _, pl := range d.Report {
			if pl.From == "" {
				continue
			}
			views++
			base, ok := Lookup(pl.From)
			var runs []Placement
			for _, bp := range base.Report {
				if bp.Section == pl.Section {
					runs = append(runs, bp)
				}
			}
			if !ok || len(runs) != 1 || runs[0].From != "" || d.Of == nil {
				t.Errorf("%s views %q, which is not one run of section %q, or has no Of", d.Name, pl.From, pl.Section)
				continue
			}
			p := runs[0].Fast
			p.Seed, p.Dur = 1, 4*sim.Second
			b, err := base.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			v, err := d.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := json.Marshal(d.Of(b))
			want, _ := json.Marshal(v)
			if !bytes.Equal(got, want) {
				t.Errorf("%s from %s's result:\n%s\nwant its own run's\n%s", d.Name, pl.From, got, want)
			}
		}
	}
	if views == 0 {
		t.Error("no placement views another run; table1 views fig9's bars")
	}
}

// TestNoDriverNamedInCmd: the commands reach an experiment only through
// the table (`-exp` looks its argument up, `-report` walks the
// placements), so no string literal under cmd/ is a driver's name. A
// literal that is also the name of a flag its command defines names that
// flag: abcsim's -schemes is spelled like the schemes row.
func TestNoDriverNamedInCmd(t *testing.T) {
	names := map[string]bool{}
	for _, d := range Drivers {
		names[d.Name] = true
	}
	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{}
	err := filepath.WalkDir("../../cmd", func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		pkgs[filepath.Dir(path)] = append(pkgs[filepath.Dir(path)], f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no Go files under cmd/")
	}
	str := func(n ast.Node) (string, bool) {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(lit.Value)
		return s, err == nil
	}
	for _, files := range pkgs {
		flags := map[string]bool{}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && len(call.Args) > 0 {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok && x.Name == "flag" {
							if s, ok := str(call.Args[0]); ok {
								flags[s] = true
							}
						}
					}
				}
				return true
			})
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if s, ok := str(n); ok && names[s] && !flags[s] {
					t.Errorf("%s: string literal %q names a driver; reach it through exp.Drivers", fset.Position(n.Pos()), s)
				}
				return true
			})
		}
	}
}

// TestDocNamesExist: every test, benchmark, fuzz target or example that
// DESIGN.md, a README or a Go comment names is declared in some Go file,
// and every backticked `Type.Member` (or `exp.Type.Member`) they write
// whose Type is declared in this package names a field or method Type
// has, its own or one it embeds. CHANGES.md and ROADMAP.md are history,
// and may name what is gone.
func TestDocNamesExist(t *testing.T) {
	named := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z_]\w*`)
	qualified := regexp.MustCompile("`(?:exp\\.)?(\\w+)\\.(\\w+)")
	declared, cited := map[string]bool{}, map[string]string{} // cited: name -> where
	members := map[string]map[string]bool{}                   // this package's types: fields, methods, embedded types
	member := func(typ, name string) {
		if members[typ] == nil {
			members[typ] = map[string]bool{}
		}
		members[typ][name] = true
	}
	cite := func(where, text string) {
		for _, n := range named.FindAllString(text, -1) {
			cited[n] = where
		}
		for _, m := range qualified.FindAllStringSubmatch(text, -1) {
			cited[m[1]+"."+m[2]] = where
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir("../..", func(path string, e fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case e.IsDir() && path != "../.." && strings.HasPrefix(e.Name(), "."):
			return filepath.SkipDir
		case strings.HasSuffix(path, ".go"):
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return err
			}
			here := filepath.Dir(path) == filepath.Join("../..", "internal", "exp")
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					declared[d.Name.Name] = true
					if here && d.Recv != nil {
						recv := d.Recv.List[0].Type
						if star, ok := recv.(*ast.StarExpr); ok {
							recv = star.X
						}
						if ix, ok := recv.(*ast.IndexExpr); ok {
							recv = ix.X
						}
						member(recv.(*ast.Ident).Name, d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok || !here {
							continue
						}
						member(ts.Name.Name, "")
						var fields *ast.FieldList
						switch typ := ts.Type.(type) {
						case *ast.StructType:
							fields = typ.Fields
						case *ast.InterfaceType:
							fields = typ.Methods
						default:
							continue
						}
						for _, fl := range fields.List {
							for _, n := range fl.Names {
								member(ts.Name.Name, n.Name)
							}
							if len(fl.Names) == 0 { // embedded: its name, and its members through it
								typ := fl.Type
								if star, ok := typ.(*ast.StarExpr); ok {
									typ = star.X
								}
								if sel, ok := typ.(*ast.SelectorExpr); ok {
									typ = sel.Sel
								}
								member(ts.Name.Name, typ.(*ast.Ident).Name)
							}
						}
					}
				}
			}
			for _, g := range f.Comments {
				cite(fset.Position(g.Pos()).String(), g.Text())
			}
		case e.Name() == "DESIGN.md" || strings.HasPrefix(e.Name(), "README"):
			b, err := os.ReadFile(path)
			for i, line := range strings.Split(string(b), "\n") {
				cite(fmt.Sprintf("%s:%d", path, i+1), line)
			}
			return err
		}
		return nil
	})
	if err != nil || len(cited) == 0 || !declared["TestDocNamesExist"] || len(members) == 0 {
		t.Fatalf("walked %d citations, %d declarations and %d types: %v", len(cited), len(declared), len(members), err)
	}
	// has reports whether typ has the member, directly or through a
	// type of this package it embeds.
	var has func(typ, name string) bool
	has = func(typ, name string) bool {
		for m := range members[typ] {
			if m == name || m != "" && m != typ && members[m] != nil && has(m, name) {
				return true
			}
		}
		return false
	}
	for n, where := range cited {
		typ, name, ok := strings.Cut(n, ".")
		switch {
		case !ok && !declared[n]:
			t.Errorf("%s names %s, which no Go file declares", where, n)
		case ok && members[typ] != nil && !has(typ, name):
			t.Errorf("%s names %s, but exp.%s has no field or method %s", where, n, typ, name)
		}
	}
}
