// The packet books: every flow's packet.Tally books each packet it
// attaches and each packet's end, by cause, so a run's ledger is a sum,
// and balancing it is a handful of comparisons with counts the rest of
// the simulator keeps on its own. audit runs at the end of every Run and
// turns a ledger that does not balance into Run's error.
package exp

import (
	"fmt"
	"slices"

	"abc/internal/cc"
	"abc/internal/netem"
	"abc/internal/packet"
	"abc/internal/topo"
)

// flowEnds is one flow's sender, which owns its tally, and receiver.
type flowEnds struct {
	ep   *cc.Endpoint
	recv *netem.Receiver
}

// account is what the audit compares for a set of flows: their books,
// and the data packets their senders sent and their receivers took in.
type account struct {
	books           packet.Books
	sent, delivered int64
}

// account reads the flow's account.
func (f flowEnds) account() account {
	return account{f.ep.Tally.Books(), f.ep.SentPackets, f.recv.Delivered}
}

// add folds o into a.
func (a *account) add(o account) {
	a.books.Add(o.books)
	a.sent += o.sent
	a.delivered += o.delivered
}

// check holds the per-flow identities: every data packet sent is on the
// books, and every one taken in made an ACK and ended Delivered.
func (a *account) check(who string) error {
	b := &a.books
	switch {
	case b.Data != a.sent:
		return fmt.Errorf("%s: %d data packets attached, the sender sent %d", who, b.Data, a.sent)
	case b.Acks != a.delivered:
		return fmt.Errorf("%s: %d ACKs attached, the receiver took in %d data packets", who, b.Acks, a.delivered)
	case b.Released[packet.Delivered] != a.delivered:
		return fmt.Errorf("%s: %d data packets ended delivered, the receiver took in %d", who, b.Released[packet.Delivered], a.delivered)
	}
	return nil
}

// ledger sums the run's books: every declared flow's tally and every
// workload's drained flows and live ones. It runs at a barrier or after
// the run.
func (c *compiled) ledger() packet.Books {
	var b packet.Books
	for _, f := range c.flows {
		b.Add(f.ep.Tally.Books())
	}
	for _, r := range c.workloads {
		b.Add(r.drained.books)
		for _, s := range r.live {
			b.Add(s.ep.Tally.Books())
		}
	}
	return b
}

// audit balances the run's books against what else counted:
//   - per flow (a workload's drained flows summed): check's identities;
//   - graph-wide: the packets that ended refused or dropped inside a
//     discipline are the disciplines' DroppedPackets, and the packets
//     live on the books are the packets the network holds — queued in a
//     discipline, in a link's service (an A-MPDU in the air, or the
//     argument of an event a link scheduled on itself), or in flight in
//     any other pending event;
//   - per edge: the bytes its discipline dequeued and its link has not
//     delivered are the bytes in the link's service;
//   - per endpoint: a stopped one has no event pending, which is what
//     lets a spawned flow's endpoint carry the next flow;
//   - the graph's route slots: the flows holding one are exactly the
//     declared flows and the workloads' live ones, so a drained flow
//     left nothing routed.
func (c *compiled) audit() error {
	if err := c.balance(); err != nil {
		return fmt.Errorf("exp: packet books do not balance: %v", err)
	}
	return nil
}

func (c *compiled) balance() error {
	for i := range c.flows {
		a := c.flows[i].account()
		if err := a.check(fmt.Sprintf("flow %d", i)); err != nil {
			return err
		}
	}
	routed := len(c.flows)
	for _, r := range c.workloads {
		if err := r.drained.check(fmt.Sprintf("workload %s, drained flows", r.wr.Class)); err != nil {
			return err
		}
		live := slices.Clone(r.live)
		slices.SortFunc(live, func(a, b *spawned) int { return a.id - b.id })
		for _, s := range live {
			a := s.ends().account()
			if err := a.check(fmt.Sprintf("workload %s, flow %d", r.wr.Class, s.id)); err != nil {
				return err
			}
			if _, ok := c.g.RouteOf(s.id, false); !ok {
				return fmt.Errorf("workload %s, flow %d: live but not routed", r.wr.Class, s.id)
			}
		}
		routed += len(live)
	}
	for i := range c.flows {
		if _, ok := c.g.RouteOf(i, false); !ok {
			return fmt.Errorf("flow %d: not routed", i)
		}
	}
	if held, _ := c.g.Slots(); held != routed {
		return fmt.Errorf("%d route slots held, but %d flows are declared or live", held, routed)
	}

	l := c.res.Ledger
	var dropped, queued int64
	for _, q := range c.edgeQ {
		if q != nil {
			dropped += q.Counters().DroppedPackets
			queued += int64(q.Len())
		}
	}
	if n := l.Released[packet.Refused] + l.Released[packet.AQM]; n != dropped {
		return fmt.Errorf("%d packets ended refused or dropped inside a discipline, the disciplines dropped %d", n, dropped)
	}

	inService := map[topo.Link]int64{} // bytes, by link
	var serving, inFlight int64
	stale := -1 // the flow of the first stopped endpoint with an event pending
	c.g.S.EachPending(func(a, b any) {
		if ep, ok := a.(*cc.Endpoint); ok && ep.Stopped() && stale < 0 {
			stale = ep.Flow
		}
		p, ok := b.(*packet.Packet)
		if !ok {
			return
		}
		if l, ok := a.(topo.Link); ok {
			inService[l] += int64(p.Size)
			serving++
			return
		}
		inFlight++
	})
	if stale >= 0 {
		return fmt.Errorf("flow %d: its endpoint is stopped but has an event pending", stale)
	}
	for id, q := range c.edgeQ {
		if q == nil {
			continue
		}
		e := c.g.Edge(id)
		switch l := e.Link.(type) {
		case interface{ InService() []*packet.Packet }:
			for _, p := range l.InService() {
				inService[e.Link] += int64(p.Size)
				serving++
			}
		case *netem.RateLink:
			// A lazy link's transmission in progress was handed on as it
			// started: its packet, or the ACK a folding receiver made of
			// it, is counted in flight.
			inService[e.Link] += l.Serving()
		}
		if d := q.Counters().DequeuedBytes - e.Link.DeliveredBytes(); d != inService[e.Link] {
			return fmt.Errorf("edge %q: dequeued %d bytes more than it delivered, but holds %d in service", e.Name, d, inService[e.Link])
		}
	}
	if live, held := l.Live(), queued+serving+inFlight; live != held {
		return fmt.Errorf("%d packets live on the books, the network holds %d (%d queued, %d in service, %d in flight)", live, held, queued, serving, inFlight)
	}
	return nil
}
