// Registry hookup for the explicit-feedback baselines: senders join the
// scheme registry paired with their router kinds, and the routers join the
// qdisc registry.
package explicit

import (
	"abc/internal/cc"
	"abc/internal/qdisc"
)

func init() {
	cc.Register(cc.Scheme{Name: "XCP", New: func() cc.Algorithm { return NewXCPSender() }, Qdisc: "xcp"})
	cc.Register(cc.Scheme{Name: "XCPw", New: func() cc.Algorithm { return NewXCPSender() }, Qdisc: "xcpw"})
	cc.Register(cc.Scheme{Name: "RCP", New: func() cc.Algorithm { return NewRCPSender() }, Qdisc: "rcp"})
	cc.Register(cc.Scheme{Name: "VCP", New: func() cc.Algorithm { return NewVCPSender() }, Qdisc: "vcp"})

	qdisc.Register("xcp", func(s qdisc.BuildSpec) (qdisc.Qdisc, error) {
		return NewXCPRouter(XCPConfig{Limit: s.Buffer}), nil
	})
	qdisc.Register("xcpw", func(s qdisc.BuildSpec) (qdisc.Qdisc, error) {
		return NewXCPRouter(XCPConfig{Limit: s.Buffer, PerPacket: true}), nil
	})
	qdisc.Register("rcp", func(s qdisc.BuildSpec) (qdisc.Qdisc, error) {
		return NewRCPRouter(s.Buffer), nil
	})
	qdisc.Register("vcp", func(s qdisc.BuildSpec) (qdisc.Qdisc, error) {
		return NewVCPRouter(s.Buffer), nil
	})
}
