package core

// Multi-way relationships (Appendix B). Some non-key attributes point at
// mediator entity types that exist to connect several other types — e.g. a
// film's Performances attribute targets FILM PERFORMANCE entities, each of
// which links onward to a FILM ACTOR and a FILM CHARACTER. The paper's
// sample previews render such attributes with "values for all participating
// entity types" (Agent J is a FILM CHARACTER played by FILM ACTOR Will
// Smith in FILM Men in Black). This file detects mediator targets and
// materializes the one-hop expansion.

import (
	"sort"

	"github.com/uta-db/previewtables/internal/graph"
)

// MediatorInfo describes the multi-way structure behind one non-key
// attribute: the target entity type and the further entity types reachable
// from it in one hop (excluding the keyed type itself).
type MediatorInfo struct {
	Target graph.TypeID
	// Participants are the other entity types a target entity connects to,
	// in ascending id order.
	Participants []graph.TypeID
}

// Mediator inspects a non-key attribute of a table keyed by key and
// reports the multi-way structure, if any: the attribute is mediated when
// its target type has outgoing or incoming relationship types to entity
// types other than the keyed type. ok is false for plain binary
// attributes (the target is a leaf relative to the key).
func Mediator(s *graph.Schema, key graph.TypeID, inc graph.Incidence) (MediatorInfo, bool) {
	target := s.OtherEnd(inc)
	seen := map[graph.TypeID]bool{}
	for _, tinc := range s.Incident(target) {
		other := s.OtherEnd(tinc)
		if other == key || other == target {
			continue
		}
		seen[other] = true
	}
	if len(seen) == 0 {
		return MediatorInfo{}, false
	}
	info := MediatorInfo{Target: target, Participants: make([]graph.TypeID, 0, len(seen))}
	for t := range seen {
		info.Participants = append(info.Participants, t)
	}
	sort.Slice(info.Participants, func(a, b int) bool {
		return info.Participants[a] < info.Participants[b]
	})
	return info, true
}

// ExpandedValue is one value of a multi-way attribute: the direct target
// entity plus the entities it links onward to (one hop), grouped by their
// entity type.
type ExpandedValue struct {
	Value graph.EntityID
	// Linked maps each participant entity type to the entities of that type
	// adjacent to Value (in either direction), deduplicated.
	Linked map[graph.TypeID][]graph.EntityID
}

// ExpandValues materializes the one-hop expansion of a tuple's value set on
// a mediated attribute: for each direct value, the related entities of each
// participant type. Values come in the tuple's order, name order; each
// Linked list holds what each incident relationship type of the target
// contributes, in incidence order, each in name order. Plain binary
// attributes return values with empty Linked maps.
func ExpandValues(g *graph.EntityGraph, key graph.TypeID, inc graph.Incidence, tuple Tuple, attrIndex int) []ExpandedValue {
	s := g.Schema()
	info, mediated := Mediator(s, key, inc)
	vals := tuple.Values[attrIndex]
	out := make([]ExpandedValue, 0, len(vals))
	for _, v := range vals {
		ev := ExpandedValue{Value: v, Linked: map[graph.TypeID][]graph.EntityID{}}
		if mediated {
			for _, tinc := range s.Incident(info.Target) {
				other := s.OtherEnd(tinc)
				if other == key || other == info.Target {
					continue
				}
				for _, u := range g.Neighbors(v, tinc.Rel, tinc.Outgoing) {
					if !g.HasType(u, other) {
						continue
					}
					ev.Linked[other] = appendUnique(ev.Linked[other], u)
				}
			}
		}
		out = append(out, ev)
	}
	return out
}

func appendUnique(xs []graph.EntityID, v graph.EntityID) []graph.EntityID {
	for _, x := range xs {
		if x == v {
			return xs
		}
	}
	return append(xs, v)
}
