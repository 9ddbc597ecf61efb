// Package local implements a synchronous LOCAL-model message-passing
// simulator and the distributed spanner construction of Section 7
// (Corollary 3): an O(1)-round distributed version of Algorithm 1.
//
// The simulator is faithful to the LOCAL model: computation proceeds in
// synchronous rounds; in each round every node runs its handler with the
// messages received at the end of the previous round and may send one
// message to each neighbor (message size is unbounded in LOCAL, which the
// 3-hop-knowledge flooding of Section 7 exploits). Nodes share no memory;
// all cross-node information flows through messages.
package local

import (
	"fmt"
	"sync"

	"repro/internal/graph"
)

// Message is a payload delivered to a node at the start of a round.
type Message struct {
	From    int32
	Payload any
}

// NodeCtx is the per-round execution context handed to a node's handler.
type NodeCtx struct {
	ID    int32
	Round int
	Inbox []Message

	net    *Network
	outbox []outMsg
}

type outMsg struct {
	to      int32
	payload any
}

// Send queues a message to a neighbor for delivery next round. Sending to
// a non-neighbor panics: the LOCAL model only allows communication along
// edges.
func (c *NodeCtx) Send(to int32, payload any) {
	if !c.net.g.HasEdge(c.ID, to) {
		panic(fmt.Sprintf("local: node %d attempted to message non-neighbor %d", c.ID, to))
	}
	c.outbox = append(c.outbox, outMsg{to: to, payload: payload})
}

// Broadcast sends payload to every neighbor.
func (c *NodeCtx) Broadcast(payload any) {
	for _, w := range c.net.g.Neighbors(c.ID) {
		c.outbox = append(c.outbox, outMsg{to: w, payload: payload})
	}
}

// Neighbors exposes the node's local view of its adjacency (always known
// in LOCAL).
func (c *NodeCtx) Neighbors() []int32 {
	return c.net.g.Neighbors(c.ID)
}

// Handler is a node's per-round program.
type Handler func(ctx *NodeCtx)

// Sized lets message payloads report a size in abstract words, so the
// simulator can account for bandwidth. Payloads that do not implement it
// count as one word. The distinction matters for model placement: the
// Section 7 protocol floods 3-hop edge knowledge, whose per-message size
// grows with Δ³ — fine in LOCAL (unbounded messages), far outside CONGEST
// (O(log n)-bit messages), and the simulator's MaxMessageWords makes that
// visible.
type Sized interface {
	SizeWords() int
}

// Network simulates a LOCAL-model network over a graph.
type Network struct {
	g *graph.Graph

	RoundsRun    int
	MessagesSent int64
	// TotalWords is the cumulative payload volume in abstract words.
	TotalWords int64
	// MaxMessageWords is the largest single payload observed.
	MaxMessageWords int

	inboxes [][]Message
}

func payloadWords(p any) int {
	if s, ok := p.(Sized); ok {
		return s.SizeWords()
	}
	return 1
}

// NewNetwork creates a network over g with empty inboxes.
func NewNetwork(g *graph.Graph) *Network {
	return &Network{g: g, inboxes: make([][]Message, g.N())}
}

// Graph returns the underlying communication graph.
func (n *Network) Graph() *graph.Graph { return n.g }

// RunRound executes one synchronous round: every node's handler runs (in
// parallel) against its current inbox; all sent messages are delivered
// into the inboxes for the next round.
func (n *Network) RunRound(h Handler) {
	numNodes := n.g.N()
	ctxs := make([]*NodeCtx, numNodes)
	graph.ParallelRangeWorkers(numNodes, 0, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			ctx := &NodeCtx{ID: int32(v), Round: n.RoundsRun, Inbox: n.inboxes[v], net: n}
			h(ctx)
			ctxs[v] = ctx
		}
	})
	// Synchronous delivery barrier.
	next := make([][]Message, numNodes)
	var sent int64
	var mu sync.Mutex
	graph.ParallelRangeWorkers(numNodes, 0, func(_, lo, hi int) {
		local := int64(0)
		for v := lo; v < hi; v++ {
			local += int64(len(ctxs[v].outbox))
		}
		mu.Lock()
		sent += local
		mu.Unlock()
	})
	// Delivery must be sequential per recipient; group by recipient.
	var words int64
	maxWords := n.MaxMessageWords
	for v := 0; v < numNodes; v++ {
		for _, m := range ctxs[v].outbox {
			w := payloadWords(m.payload)
			words += int64(w)
			if w > maxWords {
				maxWords = w
			}
			next[m.to] = append(next[m.to], Message{From: int32(v), Payload: m.payload})
		}
	}
	n.inboxes = next
	n.MessagesSent += sent
	n.TotalWords += words
	n.MaxMessageWords = maxWords
	n.RoundsRun++
}

// Run executes `rounds` rounds of the handler.
func (n *Network) Run(h Handler, rounds int) {
	for i := 0; i < rounds; i++ {
		n.RunRound(h)
	}
}
