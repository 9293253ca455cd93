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
