package testnet

import (
	"armnet/internal/topology"
)

// routeTable maps the opaque (conn, hop) coordinates the delivery-hook
// seams expose back to concrete links and the agents owning them, so the
// transport can address each hop's frame. It mirrors the protocols' own
// hop conventions exactly:
//
//   - signal: forward hops 0..n-1 cross route link i; the commit
//     confirmation's reverse hops n..2n-1 cross link 2n-1-hop.
//   - maxmin ADVERTISE: a two-pass out-and-back sweep over the
//     deduplicated path of length m — hop < m crosses path[hop], hop in
//     m..2m-1 crosses path[2m-1-hop].
//   - maxmin UPDATE: one forward pass, hop i crosses path[i].
type routeTable struct {
	cluster *clusterNet
	routes  map[string]*route
	// Unrouted counts hook invocations for connections or hops with no
	// registered mapping — always zero in a healthy run.
	Unrouted int
}

// route is everything a connection's frames need, found by one lookup:
// the signal-plane links in route order, the deduplicated maxmin path,
// the reserve the frames carry, and each hop's owning agent, resolved
// once at Register.
type route struct {
	signal  []hop
	path    []hop
	reserve float64
}

// hop is one link of a route and the index of the agent owning it.
type hop struct {
	link  topology.LinkID
	agent int
}

// newRouting returns an empty registry resolving hops to the cluster's
// agents.
func newRouting(cluster *clusterNet) *routeTable {
	return &routeTable{cluster: cluster, routes: make(map[string]*route)}
}

// register records a connection's route before its setup session starts
// (the forward pass consults it from hop 0). Re-registering — a handoff
// to a new route — replaces the mapping in the connection's record.
func (r *routeTable) register(conn string, rt topology.Route, reserve float64) {
	rec := r.routes[conn]
	if rec == nil {
		rec = &route{}
		r.routes[conn] = rec
	}
	rec.signal, rec.path, rec.reserve = rec.signal[:0], rec.path[:0], reserve
	for _, l := range rt.Links {
		h := hop{link: l.ID, agent: r.cluster.agent(l.ID)}
		rec.signal = append(rec.signal, h)
		// The maxmin path mirrors Protocol.AddConn's dedup (uniqueLinks).
		if !onPath(rec.path, l.ID) {
			rec.path = append(rec.path, h)
		}
	}
}

func onPath(path []hop, link topology.LinkID) bool {
	for _, h := range path {
		if h.link == link {
			return true
		}
	}
	return false
}

// reserve returns the connection's registered b_min (zero if unknown).
func (r *routeTable) reserve(conn string) float64 {
	if rec := r.routes[conn]; rec != nil {
		return rec.reserve
	}
	return 0
}

// signalHop resolves a signal-plane hop: the connection's record, the
// hop crossed and whether it is a reverse-pass commit confirmation hop.
// An unroutable hop counts toward Unrouted.
func (r *routeTable) signalHop(conn string, i int) (*route, hop, bool, bool) {
	rec := r.routes[conn]
	if h, commit, ok := rec.signalHop(i); ok {
		return rec, h, commit, true
	}
	r.Unrouted++
	return nil, hop{}, false, false
}

// maxminHop resolves a maxmin hop for an UPDATE (update=true, forward
// pass) or an ADVERTISE sweep (out-and-back), counting an unroutable hop
// toward Unrouted.
func (r *routeTable) maxminHop(conn string, i int, update bool) (hop, bool) {
	if h, ok := r.routes[conn].maxminHop(i, update); ok {
		return h, true
	}
	r.Unrouted++
	return hop{}, false
}

// peekSignal and peekMaxmin resolve a hop without touching the Unrouted
// counter — for observers (the fault layer) sitting in front of a
// transport that will resolve, and count, the same hop itself.
func (r *routeTable) peekSignal(conn string, i int) (hop, bool) {
	h, _, ok := r.routes[conn].signalHop(i)
	return h, ok
}

func (r *routeTable) peekMaxmin(conn string, i int, update bool) (hop, bool) {
	return r.routes[conn].maxminHop(i, update)
}

// abortHop resolves a rollback sweep's frame target: it travels toward
// the source, addressed to the agent owning the failed hop's link (the
// last link actually reached when the failure was past the route).
func (r *routeTable) abortHop(conn string, i int) (hop, bool) {
	rec := r.routes[conn]
	if rec == nil || len(rec.signal) == 0 {
		return hop{}, false
	}
	return rec.signal[max(0, min(i, len(rec.signal)-1))], true
}

// signalHop resolves hop i on a record; a nil record routes nothing.
func (rec *route) signalHop(i int) (h hop, commit bool, ok bool) {
	if rec == nil {
		return hop{}, false, false
	}
	n := len(rec.signal)
	switch {
	case i >= 0 && i < n:
		return rec.signal[i], false, true
	case i >= n && i < 2*n:
		return rec.signal[2*n-1-i], true, true
	}
	return hop{}, false, false
}

func (rec *route) maxminHop(i int, update bool) (hop, bool) {
	if rec == nil {
		return hop{}, false
	}
	m := len(rec.path)
	switch {
	case i >= 0 && i < m:
		return rec.path[i], true
	case !update && i >= m && i < 2*m:
		return rec.path[2*m-1-i], true
	}
	return hop{}, false
}
