// Registry hookup: ABC contributes its sender to the scheme registry and
// its routers to the qdisc registry, so the experiment harness never
// constructs ABC objects directly.
package abc

import (
	"fmt"
	"math/rand"

	"abc/internal/cc"
	"abc/internal/qdisc"
)

// RouterConfigFor is the one rule by which every ABC-family kind — "abc",
// "abc-proxied", and sched's "dual-maxmin" and "dual-zombie" — configures
// its router: the BuildSpec's Config, which must be a *RouterConfig, with
// each zero field taking DefaultRouterConfig's value. A Limit of 0 (and
// the default's, when there is no Config) takes limit, the kind's own
// queue-limit rule.
// A field the router cannot honour is an error: a LieFraction outside
// [0, 1], or any lie when rng, the stream the router would draw it from,
// is nil.
func RouterConfigFor(s qdisc.BuildSpec, limit int, rng *rand.Rand) (RouterConfig, error) {
	cfg := DefaultRouterConfig()
	cfg.Limit = 0
	if s.Config != nil {
		c, ok := s.Config.(*RouterConfig)
		if !ok {
			return RouterConfig{}, fmt.Errorf("abc: qdisc %s given a %T, not an *abc.RouterConfig", s.Kind, s.Config)
		}
		cfg = c.withDefaults()
	}
	if cfg.Limit == 0 {
		cfg.Limit = limit
	}
	switch lie := cfg.LieFraction; {
	case !(lie >= 0 && lie <= 1):
		return RouterConfig{}, fmt.Errorf("abc: lie fraction %g outside [0, 1]", lie)
	case lie != 0 && rng == nil:
		return RouterConfig{}, fmt.Errorf("abc: qdisc %s cannot lie: its router draws from no random stream", s.Kind)
	}
	return cfg, nil
}

func init() {
	cc.Register(cc.Scheme{Name: "ABC", New: func() cc.Algorithm { return NewSender() }, Qdisc: "abc"})
	cc.Register(cc.Scheme{Name: "ABC-MIMD", New: func() cc.Algorithm {
		s := NewSender()
		s.disableAI = true
		return s
	}, Qdisc: "abc"})
	cc.Register(cc.Scheme{Name: "ABC-proxied", New: func() cc.Algorithm { return NewProxiedSender() }, Qdisc: "abc-proxied"})

	qdisc.RegisterConfigured("abc", func(s qdisc.BuildSpec) (qdisc.Qdisc, error) {
		cfg, err := RouterConfigFor(s, s.Buffer, s.Rand)
		if err != nil {
			return nil, err
		}
		r := NewRouter(cfg)
		r.rng = s.Rand
		return r, nil
	})
	qdisc.RegisterConfigured("abc-proxied", func(s qdisc.BuildSpec) (qdisc.Qdisc, error) {
		cfg, err := RouterConfigFor(s, s.Buffer, nil)
		if err != nil {
			return nil, err
		}
		return NewProxiedRouter(cfg), nil
	})
}
