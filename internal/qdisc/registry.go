// Qdisc registry: queueing disciplines self-register under a kind name
// and experiments build them from a provider-agnostic BuildSpec. This
// inverts the old dependency direction, where the experiment harness
// hard-coded a constructor switch over every discipline package: now each
// package (qdisc, abc, explicit, sched) registers its own kinds from an
// init function and the harness only knows the registry.
package qdisc

import (
	"fmt"
	"math/rand"
	"sort"
)

// DefaultBuffer is the queue limit applied when a BuildSpec leaves Buffer
// unset: the paper's 250-packet cellular emulation buffer.
const DefaultBuffer = 250

// BuildSpec describes one discipline instance generically.
type BuildSpec struct {
	// Kind names the registered discipline ("" builds a droptail FIFO).
	Kind string
	// Buffer is the queue limit in packets (<= 0 means DefaultBuffer).
	// Every kind bounds its queue by it — each child's, for the dual-*
	// composites.
	Buffer int
	// Config is a provider-specific configuration (*abc.RouterConfig for
	// the ABC family). Build rejects one handed to a kind registered with
	// Register rather than RegisterConfigured; a builder that reads
	// Config rejects a type it does not know.
	Config any
	// Rand supplies randomness to probabilistic disciplines (PIE, a
	// lying ABC router). Builders must tolerate nil.
	Rand *rand.Rand
}

// Builder constructs a discipline from its spec. The spec's Buffer is
// already defaulted by Build.
type Builder func(spec BuildSpec) (Qdisc, error)

// registered is one kind's builder and whether it reads BuildSpec.Config.
type registered struct {
	build  Builder
	config bool
}

var builders = map[string]registered{}

// Register installs a builder for a kind that reads no Config. It panics
// on duplicates, which turns conflicting registrations into an immediate
// startup failure instead of a silent override.
func Register(kind string, b Builder) { register(kind, registered{b, false}) }

// RegisterConfigured installs a builder for a kind that reads
// BuildSpec.Config, under Register's rules.
func RegisterConfigured(kind string, b Builder) { register(kind, registered{b, true}) }

func register(kind string, r registered) {
	if kind == "" || r.build == nil {
		panic("qdisc: Register with empty kind or nil builder")
	}
	if _, dup := builders[kind]; dup {
		panic(fmt.Sprintf("qdisc: duplicate Register(%q)", kind))
	}
	builders[kind] = r
}

// Build constructs the discipline named by spec.Kind via the registry. A
// Config handed to a kind that reads none is an error, not a no-op.
func Build(spec BuildSpec) (Qdisc, error) {
	kind := spec.Kind
	if kind == "" {
		kind = "droptail"
	}
	if spec.Buffer <= 0 {
		spec.Buffer = DefaultBuffer
	}
	r, ok := builders[kind]
	if !ok {
		return nil, fmt.Errorf("qdisc: unknown kind %q (registered: %v)", kind, Kinds())
	}
	if spec.Config != nil && !r.config {
		return nil, fmt.Errorf("qdisc: kind %q takes no configuration (given a %T)", kind, spec.Config)
	}
	return r.build(spec)
}

// Kinds returns the registered kind names, sorted.
func Kinds() []string {
	out := make([]string, 0, len(builders))
	for k := range builders {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// init registers the disciplines this package itself provides.
func init() {
	Register("droptail", func(s BuildSpec) (Qdisc, error) {
		return NewDropTail(s.Buffer), nil
	})
	Register("codel", func(s BuildSpec) (Qdisc, error) {
		return NewCoDel(s.Buffer, false), nil
	})
	Register("pie", func(s BuildSpec) (Qdisc, error) {
		return NewPIE(s.Buffer, false, s.Rand), nil
	})
}
