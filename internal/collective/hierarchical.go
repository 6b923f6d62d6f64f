package collective

import (
	"fmt"
)

// Hierarchical (topology-aware) AllReduce, the related-work optimization the
// paper cites as orthogonal to EmbRace (§6: "applying topology-aware
// hierarchical collective communication"). On a cluster of n nodes with w
// workers each, a flat ring crosses the slow inter-node links 2(N-1) times;
// the hierarchical variant reduces inside each node first, runs the
// inter-node exchange once per node, and broadcasts back — trading ring
// optimality for far fewer slow-link crossings. It composes with EmbRace's
// dense path: any strategy can aggregate its dense gradients this way.
//
// Ranks are grouped node-contiguously: node k owns ranks
// [k*w, (k+1)*w), matching how modelzoo lays clusters out.

// hierarchical phase names; each phase gets its own op so the Communicator's
// collision-checked tag allocation keeps the three message streams disjoint.
const (
	hierOpReduce = "/hier-reduce"
	hierOpInter  = "/hier-inter"
	hierOpBcast  = "/hier-bcast"
)

// HierarchicalAllReduce sums buf element-wise across all ranks in place
// using the three-phase node-aware algorithm: (1) intra-node reduce to the
// node leader, (2) ring AllReduce among leaders, (3) intra-node broadcast.
// workersPerNode must divide the world size. With workersPerNode == 1 it
// degenerates to a flat ring AllReduce.
func (c *Communicator) HierarchicalAllReduce(op string, step, workersPerNode int, buf []float32) error {
	n, r := c.t.Size(), c.t.Rank()
	if workersPerNode <= 0 {
		return fmt.Errorf("collective: workersPerNode must be positive, got %d", workersPerNode)
	}
	if n%workersPerNode != 0 {
		return fmt.Errorf("collective: world size %d not divisible by %d workers/node", n, workersPerNode)
	}
	if n == 1 {
		return nil
	}
	if workersPerNode == 1 {
		return c.AllReduce(op, step, buf)
	}

	leader := (r / workersPerNode) * workersPerNode
	reduceOp := op + hierOpReduce
	reduceTag, err := c.Tag(reduceOp, step)
	if err != nil {
		return err
	}
	defer c.release(reduceTag)
	bcastOp := op + hierOpBcast
	bcastTag, err := c.Tag(bcastOp, step)
	if err != nil {
		return err
	}
	defer c.release(bcastTag)

	// Phase 1: intra-node reduce to the leader.
	if r == leader {
		for p := leader + 1; p < leader+workersPerNode; p++ {
			payload, err := c.recvRaw(reduceOp, p, reduceTag)
			if err != nil {
				return fmt.Errorf("hier reduce recv from %d: %w", p, err)
			}
			in, ok := payload.([]float32)
			if !ok {
				return fmt.Errorf("collective: hier reduce payload %T", payload)
			}
			if len(in) != len(buf) {
				return fmt.Errorf("collective: hier reduce length %d != %d", len(in), len(buf))
			}
			for i, v := range in {
				buf[i] += v
			}
			c.putBuf(in)
		}
	} else {
		out := c.getBuf(len(buf))
		copy(out, buf)
		if err := c.sendRaw(reduceOp, leader, reduceTag, out); err != nil {
			return fmt.Errorf("hier reduce send: %w", err)
		}
	}

	// Phase 2: leaders exchange node sums. Every rank participates in the
	// transport world, but only leaders carry payload; non-leaders skip.
	if r == leader {
		interOp := op + hierOpInter
		interTag, err := c.Tag(interOp, step)
		if err != nil {
			return err
		}
		defer c.release(interTag)
		if err := c.leaderRingAllReduce(interOp, interTag, workersPerNode, buf); err != nil {
			return err
		}
		// Phase 3: broadcast the result back within the node.
		for p := leader + 1; p < leader+workersPerNode; p++ {
			out := c.getBuf(len(buf))
			copy(out, buf)
			if err := c.sendRaw(bcastOp, p, bcastTag, out); err != nil {
				return fmt.Errorf("hier bcast send to %d: %w", p, err)
			}
		}
		return nil
	}
	payload, err := c.recvRaw(bcastOp, leader, bcastTag)
	if err != nil {
		return fmt.Errorf("hier bcast recv: %w", err)
	}
	in, ok := payload.([]float32)
	if !ok {
		return fmt.Errorf("collective: hier bcast payload %T", payload)
	}
	if len(in) != len(buf) {
		return fmt.Errorf("collective: hier bcast length %d != %d", len(in), len(buf))
	}
	copy(buf, in)
	c.putBuf(in)
	return nil
}

// leaderRingAllReduce runs a ring AllReduce among the node leaders (ranks
// 0, w, 2w, ...) of the world, under an explicit tag.
func (c *Communicator) leaderRingAllReduce(op string, tag, workersPerNode int, buf []float32) error {
	nodes := c.t.Size() / workersPerNode
	if nodes == 1 {
		return nil
	}
	me := c.t.Rank() / workersPerNode
	right := ((me + 1) % nodes) * workersPerNode
	left := ((me - 1 + nodes) % nodes) * workersPerNode

	exchange := func(phase string, s, sendChunk, recvChunk int, combine func(dst, src []float32)) error {
		slo, shi := chunkBounds(len(buf), nodes, sendChunk)
		out := c.getBuf(shi - slo)
		copy(out, buf[slo:shi])
		if err := c.sendRaw(op, right, tag, out); err != nil {
			return fmt.Errorf("leader %s send step %d: %w", phase, s, err)
		}
		payload, err := c.recvRaw(op, left, tag)
		if err != nil {
			return fmt.Errorf("leader %s recv step %d: %w", phase, s, err)
		}
		in, ok := payload.([]float32)
		if !ok {
			return fmt.Errorf("collective: leader %s payload %T", phase, payload)
		}
		rlo, rhi := chunkBounds(len(buf), nodes, recvChunk)
		if len(in) != rhi-rlo {
			return fmt.Errorf("collective: leader %s chunk %d != %d", phase, len(in), rhi-rlo)
		}
		combine(buf[rlo:rhi], in)
		c.putBuf(in)
		return nil
	}

	// Reduce-scatter among leaders.
	for s := 0; s < nodes-1; s++ {
		sendChunk := ((me-s-1)%nodes + 2*nodes) % nodes
		recvChunk := ((me-s-2)%nodes + 2*nodes) % nodes
		err := exchange("rs", s, sendChunk, recvChunk, Sum.apply)
		if err != nil {
			return err
		}
	}
	// All-gather among leaders.
	for s := 0; s < nodes-1; s++ {
		sendChunk := ((me-s)%nodes + nodes) % nodes
		recvChunk := ((me-s-1)%nodes + nodes) % nodes
		err := exchange("ag", s, sendChunk, recvChunk,
			func(dst, src []float32) { copy(dst, src) })
		if err != nil {
			return err
		}
	}
	return nil
}
