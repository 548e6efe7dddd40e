package astopo

// Gao-Rexford valley-free routing: a path may climb customer→provider
// links, cross at most one peer link, then descend provider→customer
// links. Shortest valley-free paths from one source to every destination
// are computed with a BFS over (node, phase) states.

// Routing phases.
const (
	phaseUp   int8 = 0 // still climbing c2p links
	phasePeer int8 = 1 // crossed the single allowed peer link
	phaseDown int8 = 2 // descending p2c links
)

// pathState tracks BFS bookkeeping for one (node, phase).
type pathState struct {
	dist   int32
	parent int32 // previous node
	pphase int8  // previous phase
	seen   bool
}

// Paths holds shortest valley-free routes from one source.
type Paths struct {
	g      *Graph
	src    int32
	states [][3]pathState // by node index; nil when the source is unknown
}

// PathsFrom computes shortest valley-free paths from src to every
// reachable node. Adjacency lists are sorted by name, so tie-breaking
// (and hence every returned path) is deterministic.
func (g *Graph) PathsFrom(src string) *Paths {
	n, ok := g.index[src]
	p := &Paths{g: g, src: n}
	if !ok {
		return p
	}
	p.states = make([][3]pathState, len(g.names))

	type item struct {
		node  int32
		phase int8
	}
	// Each (node, phase) enters the queue at most once.
	queue := make([]item, 1, 3*len(g.names))
	queue[0] = item{n, phaseUp}
	p.states[n][phaseUp] = pathState{seen: true}

	push := func(n int32, phase int8, dist int32, cur item) {
		st := &p.states[n][phase]
		if st.seen {
			return
		}
		*st = pathState{dist: dist, parent: cur.node, pphase: cur.phase, seen: true}
		queue = append(queue, item{n, phase})
	}

	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		d := p.states[cur.node][cur.phase].dist + 1
		switch cur.phase {
		case phaseUp:
			for _, prov := range g.providers[cur.node] {
				push(prov, phaseUp, d, cur)
			}
			for _, peer := range g.peers[cur.node] {
				push(peer, phasePeer, d, cur)
			}
			for _, cust := range g.customers[cur.node] {
				push(cust, phaseDown, d, cur)
			}
		case phasePeer, phaseDown:
			for _, cust := range g.customers[cur.node] {
				push(cust, phaseDown, d, cur)
			}
		}
	}
	return p
}

// best returns dst's node index and its arrival phase with the smallest
// distance, preferring the later phase on ties (BGP prefers
// customer/peer routes — descending arrivals). ok is false if dst is
// unknown or unreachable.
func (p *Paths) best(dst string) (node int32, phase int8, ok bool) {
	node, ok = p.g.index[dst]
	if !ok || int(node) >= len(p.states) { // unknown source, or a node added since
		return 0, 0, false
	}
	st := &p.states[node]
	phase = -1
	for ph := phaseDown; ph >= phaseUp; ph-- {
		if st[ph].seen && (phase == -1 || st[ph].dist < st[phase].dist) {
			phase = ph
		}
	}
	return node, phase, phase != -1
}

// To reconstructs the shortest valley-free path from the source to dst
// (inclusive of both endpoints). ok is false if dst is unreachable.
func (p *Paths) To(dst string) (path []string, ok bool) {
	node, phase, ok := p.best(dst)
	if !ok {
		return nil, false
	}
	// Walk parents back to the source, filling the path from its end:
	// every hop back is one shorter, so the path has dist+1 nodes.
	path = make([]string, p.states[node][phase].dist+1)
	for i := len(path) - 1; ; i-- {
		path[i] = p.g.names[node]
		if i == 0 {
			break
		}
		s := p.states[node][phase]
		node, phase = s.parent, s.pphase
	}
	if node != p.src || phase != phaseUp {
		return nil, false // defensive: malformed state
	}
	return path, true
}
