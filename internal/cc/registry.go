// Scheme registry: congestion-control algorithms self-register under the
// name the paper's evaluation uses, together with the bottleneck
// discipline they are paired with. The experiment harness resolves both
// through this registry instead of a hard-coded switch, so adding a scheme
// is a Register call in its own package rather than an edit to the
// harness.
package cc

import (
	"fmt"
	"sort"
)

// Scheme is one registered congestion-control scheme.
type Scheme struct {
	// Name is the registry key ("ABC", "Cubic+Codel", ...).
	Name string
	// New constructs a fresh algorithm instance for one flow. An
	// instance that has carried a flow returns to what New built with
	// Algorithm.Reset, which is how a workload's recycled flows reuse it.
	New func() Algorithm
	// Qdisc names the bottleneck discipline the paper's evaluation pairs
	// with the scheme ("" means droptail). The harness uses it for
	// "auto" qdisc resolution.
	Qdisc string
}

var schemes = map[string]Scheme{}

// Register installs a scheme. It panics on duplicates or on a nil
// constructor so registration bugs surface at startup.
func Register(s Scheme) {
	if s.Name == "" || s.New == nil {
		panic("cc: Register with empty name or nil constructor")
	}
	if _, dup := schemes[s.Name]; dup {
		panic(fmt.Sprintf("cc: duplicate Register(%q)", s.Name))
	}
	schemes[s.Name] = s
}

// New constructs a fresh algorithm for the named scheme. To run another
// flow of the same scheme on an instance, Reset it instead.
func New(name string) (Algorithm, error) {
	s, ok := schemes[name]
	if !ok {
		return nil, fmt.Errorf("cc: unknown scheme %q (registered: %v)", name, SchemeNames())
	}
	return s.New(), nil
}

// QdiscFor returns the bottleneck discipline kind paired with the scheme,
// defaulting to droptail for unknown or unpaired schemes.
func QdiscFor(name string) string {
	if s, ok := schemes[name]; ok && s.Qdisc != "" {
		return s.Qdisc
	}
	return "droptail"
}

// SchemeNames returns the registered scheme names, sorted.
func SchemeNames() []string {
	out := make([]string, 0, len(schemes))
	for n := range schemes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// init registers the schemes this package itself provides. ABC and the
// explicit baselines register from their own packages.
func init() {
	Register(Scheme{Name: "Cubic", New: func() Algorithm { return NewCubic() }})
	Register(Scheme{Name: "Cubic+Codel", New: func() Algorithm { return NewCubic() }, Qdisc: "codel"})
	Register(Scheme{Name: "Cubic+PIE", New: func() Algorithm { return NewCubic() }, Qdisc: "pie"})
	Register(Scheme{Name: "Vegas", New: func() Algorithm { return NewVegas() }})
	Register(Scheme{Name: "Copa", New: func() Algorithm { return NewCopa() }})
	Register(Scheme{Name: "BBR", New: func() Algorithm { return NewBBR() }})
	Register(Scheme{Name: "PCC", New: func() Algorithm { return NewVivace() }})
	Register(Scheme{Name: "Sprout", New: func() Algorithm { return NewSprout() }})
	Register(Scheme{Name: "Verus", New: func() Algorithm { return NewVerus() }})
}
