package exp

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
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
	"fig3":      "two fixed 250 s runs; shape asserted by TestFig3AIConvergesMIMDDoesNot",
	"fig4":      "fixed-length Wi-Fi characterization; its slope is claim fig4/tia-slope",
	"fig5":      "fixed-length Wi-Fi sweep; asserted by TestFig5PredictionAccuracy",
	"fig7":      "fixed 200 s run; asserted by TestFig7FairSharingLowABCDelay",
	"fig13":     "asserted by TestFig13AppLimited",
	"fig14":     "fig10-wifi digests the same runWiFi path; only the MCS walk differs",
	"fig15":     "prints another column of the bars fig9-bars digests",
	"fig16":     "fig9-bars digests the same fig9Bars path; only the scheme set differs",
	"fig18":     "its delay ordering is claim fig18/rtt; utilisation asserted by TestFig18ABCHoldsAcrossRTTs",
	"jain":      "62 flows over five fixed 60 s runs; asserted by TestJainFairness",
	"ablations": "asserted by TestAblationsProduceMonotoneTradeoffs",
	"proxied":   "asserted by TestProxiedEncodingEquivalent",
	"pkabc":     "asserted by TestPKABCHalvesDelay",
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

// TestReportPlacesEveryClaim: every row that carries claims is in the
// report, so `abcsim -report` prints every verdict; every placement
// names a section of ReportSections, and every section holds one.
func TestReportPlacesEveryClaim(t *testing.T) {
	used := map[string]bool{}
	for _, d := range Drivers {
		if len(d.Claims) > 0 && len(d.Report) == 0 {
			t.Errorf("driver %q has claims but no report placement", d.Name)
		}
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
