// Registry hookup: the dual-queue coexistence router joins the qdisc
// registry under both of its weight policies.
package sched

import (
	"abc/internal/abc"
	"abc/internal/qdisc"
)

// buildDual constructs a dual queue whose inner ABC router is configured
// by abc.RouterConfigFor. The buffer bounds each queue.
func buildDual(policy WeightPolicy) qdisc.Builder {
	return func(s qdisc.BuildSpec) (qdisc.Qdisc, error) {
		rc, err := abc.RouterConfigFor(s, nil)
		if err != nil {
			return nil, err
		}
		cfg := DefaultConfig()
		cfg.Policy, cfg.Router, cfg.Limit = policy, rc, s.Buffer
		return NewDualQueue(cfg), nil
	}
}

func init() {
	qdisc.RegisterConfigured("dual-maxmin", buildDual(MaxMin))
	qdisc.RegisterConfigured("dual-zombie", buildDual(ZombieList))
}
