package control

import (
	"sort"

	"ccp/internal/graph"
)

// ultimateControllers computes, for every company, its ultimate direct
// controller: the end of the chain of >50% shareholders above it. Companies
// with no majority shareholder are their own heads; mutual-majority cycles
// collapse onto their minimum-id member (consistent with the reduction's
// cycle handling). The result maps every live node to its group head — the
// "group register" data product central banks derive from control data.
//
// Note this follows *direct* majority edges only; a head may still be
// indirectly controlled by a coalition of minority shareholders. Use CBE or
// the reduction for the full relation.
func ultimateControllers(g *graph.Graph) map[graph.NodeID]graph.NodeID {
	const (
		unvisited = 0
		inWalk    = 1
		done      = 2
	)
	n := g.Cap()
	state := make([]uint8, n)
	head := make(map[graph.NodeID]graph.NodeID, g.NumNodes())
	var walk []graph.NodeID
	g.EachNode(func(start graph.NodeID) {
		if state[start] != unvisited {
			return
		}
		walk = walk[:0]
		u := start
		var root graph.NodeID
		for {
			if state[u] == done {
				root = head[u]
				break
			}
			if state[u] == inWalk {
				// A mutual-majority cycle: collapse on the min-id member.
				k := 0
				for walk[k] != u {
					k++
				}
				root = u
				for _, c := range walk[k:] {
					if c < root {
						root = c
					}
				}
				break
			}
			state[u] = inWalk
			walk = append(walk, u)
			next := g.DirectController(u)
			if next == graph.None {
				root = u
				break
			}
			u = next
		}
		for _, v := range walk {
			state[v] = done
			head[v] = root
		}
	})
	return head
}

// Group is one control group: a head company and the companies whose chains
// of majority shareholders end at it (head included).
type Group struct {
	Head    graph.NodeID
	Members []graph.NodeID
}

// Groups clusters the companies of g by ultimate controller and returns the
// groups with more than one member, largest first (ties by head id).
// Members are sorted by id.
func Groups(g *graph.Graph) []Group {
	heads := ultimateControllers(g)
	byHead := make(map[graph.NodeID][]graph.NodeID)
	for v, h := range heads {
		byHead[h] = append(byHead[h], v)
	}
	var out []Group
	for h, members := range byHead {
		if len(members) < 2 {
			continue
		}
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		out = append(out, Group{Head: h, Members: members})
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Members) != len(out[j].Members) {
			return len(out[i].Members) > len(out[j].Members)
		}
		return out[i].Head < out[j].Head
	})
	return out
}
