package machine

// ClearSteady removes the steady-interval table from every spec of b,
// which puts each of its nodes on the general execute and measure
// path, and returns how many tables it removed.
func ClearSteady(b *BatchState) int {
	n := 0
	for k := range b.specs {
		if b.specs[k].steady != nil {
			b.specs[k].steady = nil
			n++
		}
	}
	return n
}

// LaneOf returns node i's governor lane and whether the engine has
// marked it settled.
func LaneOf(b *BatchState, i int) (GovLane, bool) {
	return b.lanes[i], b.lanes[i].settled
}

// CoastOf returns node i's coast: the ticks it has deferred and the
// most it may defer.
func CoastOf(b *BatchState, i int) (deferred, horizon int) {
	c := b.coasts[i]
	return int(c.deferred), int(c.horizon)
}

// Subscribe adds h to node i's hooks, as Session.Subscribe does.
func Subscribe(b *BatchState, i int, h Hook) { b.subscribe(i, h) }
