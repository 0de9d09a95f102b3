package vector

// Dict interns term strings to dense uint32 IDs so vectors can be packed
// into parallel slices and compared without touching a map. IDs are
// assigned in first-seen order and never reused; a Dict only grows.
//
// A Dict is not safe for concurrent mutation. The intended protocol is
// compile-then-cluster: intern every corpus term up front (single
// goroutine), then share the Dict read-only across the parallel kernels.
type Dict struct {
	ids   map[string]uint32
	terms []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]uint32)}
}

// RestoreDict rebuilds a dictionary whose IDs are the positions of terms
// (a persisted dictionary, read back in ID order), taking ownership of
// terms. It reports false when a term repeats, which no dictionary
// produces.
func RestoreDict(terms []string) (*Dict, bool) {
	ids := make(map[string]uint32, len(terms))
	for i, t := range terms {
		if _, dup := ids[t]; dup {
			return nil, false
		}
		ids[t] = uint32(i)
	}
	return &Dict{ids: ids, terms: terms}, true
}

// Intern returns the ID of t, assigning the next free ID if t is new.
func (d *Dict) Intern(t string) uint32 {
	if id, ok := d.ids[t]; ok {
		return id
	}
	id := uint32(len(d.terms))
	d.ids[t] = id
	d.terms = append(d.terms, t)
	return id
}

// ID returns the ID of t and whether it has been interned.
func (d *Dict) ID(t string) (uint32, bool) {
	id, ok := d.ids[t]
	return id, ok
}

// Term returns the string for an ID. IDs outside [0, Len) return "".
func (d *Dict) Term(id uint32) string {
	if int(id) >= len(d.terms) {
		return ""
	}
	return d.terms[id]
}

// Len returns the number of interned terms (and the smallest unused ID).
func (d *Dict) Len() int { return len(d.terms) }

// Clone returns an independent copy of the dictionary with identical
// ID assignments. Because IDs are append-only, vectors compiled against
// the original remain valid against the clone (and vice versa up to the
// clone point) — this is what lets an epoch keep serving a frozen Dict
// while the next epoch's builder interns new terms into its own copy.
func (d *Dict) Clone() *Dict {
	ids := make(map[string]uint32, len(d.ids))
	for t, id := range d.ids {
		ids[t] = id
	}
	return &Dict{ids: ids, terms: append([]string(nil), d.terms...)}
}
