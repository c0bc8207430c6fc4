package astar

// frontier is the A* open list: a 4-ary max-heap of arena indices by
// priority. Arena indices are allocated in push order, so breaking
// priority ties by the smaller index pops equal-priority states first in,
// first out, which keeps searches deterministic. The zero value is empty.
type frontier []open

type open struct {
	pri float64
	idx int32
}

// before is the pop order: priority desc, then arena index asc.
func (a open) before(b open) bool {
	return a.pri > b.pri || a.pri == b.pri && a.idx < b.idx
}

func (f *frontier) push(idx int32, pri float64) {
	h := append(*f, open{pri, idx})
	e, i := h[len(h)-1], len(h)-1
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	*f = h
}

// pop removes and returns the first state in pop order; ok is false when
// the frontier is empty.
func (f *frontier) pop() (idx int32, pri float64, ok bool) {
	h := *f
	n := len(h) - 1
	if n < 0 {
		return 0, 0, false
	}
	top, last := h[0], h[n]
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			best := c
			for j := c + 1; j < min(c+4, n); j++ {
				if h[j].before(h[best]) {
					best = j
				}
			}
			if !h[best].before(last) {
				break
			}
			h[i] = h[best]
			i = best
		}
		h[i] = last
	}
	*f = h
	return top.idx, top.pri, true
}
