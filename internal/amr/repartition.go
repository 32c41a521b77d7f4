package amr

import "fmt"

// Repartition: elastic restart support. A checkpoint records the patch
// geometry produced under P_old ranks; restoring onto P_new ranks must
// yield the hierarchy a native P_new run would be using at that point.
// Two facts make that well-defined:
//
//   - Refined-level boxes are P-invariant: clustering and splitting act
//     on replicated flag data, so only the *owners* (and IDs) of level
//     1+ patches depend on the rank count. Reassigning the snapshot's
//     boxes, in their stored (creation) order, through the same
//     balancer a native run uses reproduces the native distribution.
//   - Level 0 is a pure function of (domain, P): NewHierarchy's uniform
//     decomposition. It is rebuilt from scratch for P_new; its boxes
//     generally differ from the snapshot's, so the caller must copy
//     level-0 field data by region, not by patch identity.
//
// Patch IDs follow a native run's numbering, by one rule: the level-0
// count depends on P, while refined boxes, and with them which patches
// survive a regrid and which take the next ID, do not. So a native
// run's refined IDs at P_new are the saved ones moved by the change in
// level-0 patch count: level 0 takes 0..n0-1 as NewHierarchy does, and
// every saved refined ID, like NextID, moves by that shift, after any
// number of regrids. At an unchanged rank count the shift is zero. IDs
// never enter the numerics, only identity matching, and every rank
// computing Repartition from the same replicated snapshot lands on the
// same IDs.

// Repartition rebuilds a snapshotted hierarchy for a different rank
// count. balancer defaults to GreedyBalancer and work to
// UniformWorkload — pass the same policy the running mesh uses so the
// layout matches what its next regrid would produce.
func Repartition(s Snapshot, numRanks int, balancer LoadBalancer, work Workload) (*Hierarchy, error) {
	if numRanks < 1 {
		return nil, fmt.Errorf("amr: repartition onto %d ranks", numRanks)
	}
	// Validate the snapshot through the strict single-P loader first.
	old, err := FromSnapshot(s)
	if err != nil {
		return nil, err
	}
	if balancer == nil {
		balancer = GreedyBalancer{}
	}
	if work == nil {
		work = UniformWorkload
	}
	h := NewHierarchy(s.Domain, s.Ratio, s.MaxLevels, numRanks)
	h.Balancer = balancer
	h.NestingBuffer = s.NestingBuffer
	h.Regrids = s.Regrids
	n0 := len(h.levels[0].Patches)
	shift := n0 - len(old.Level(0).Patches)
	h.nextID = old.nextID + shift
	for l := 1; l < old.NumLevels(); l++ {
		src := old.Level(l)
		boxes := make([]Box, len(src.Patches))
		for i, p := range src.Patches {
			boxes[i] = p.Box
		}
		owners := balancer.Assign(boxes, l, numRanks, work)
		lv := &Level{Index: l, Domain: h.levelDomain(l)}
		for i, p := range src.Patches {
			if p.ID+shift < n0 {
				return nil, fmt.Errorf("amr: snapshot patch %d on level %d precedes the level-0 IDs", p.ID, l)
			}
			lv.Patches = append(lv.Patches, &Patch{ID: p.ID + shift, Level: l, Box: p.Box, Owner: owners[i]})
		}
		h.levels = append(h.levels, lv)
	}
	return h, nil
}
