package serve

import "fmt"

// Labels holds one batch's sensitive values as codes against an
// Assigner's tracked attributes: the model's categorical attributes, in
// model order, whose drift the Assigner reports. Build it with
// Assigner.NewLabels, resolve each attribute name once with Slot, give
// each row's values with Set, and pass it to AssignLabelled.
//
// A training value becomes its training code through a read-only
// lookup built with the Assigner, so it costs no lock and no string.
// Any other value, "" included, is kept as a string and reaches the
// drift tracker's growing domain exactly as a map value given to
// AssignBatchCtx does.
type Labels struct {
	v      *vocab
	n      int     // rows
	codes  []int32 // n rows of len(v.names) codes: absent, a training code, or unseenCode(i)
	unseen []string
}

// absent marks an attribute the row does not carry.
const absent int32 = -1

// unseenCode is the code of Labels.unseen[i].
func unseenCode(i int) int32 { return -2 - int32(i) }

// vocab is the read-only side of drift tracking, fixed when the tracker
// is built: the tracked attributes' names and each one's training
// value → code lookup. Labels resolve against it without driftMu.
type vocab struct {
	names []string
	codes []map[string]int32
}

// NewLabels returns labels for rows rows carrying no sensitive values.
func (a *Assigner) NewLabels(rows int) *Labels {
	v := a.stats.vocab
	codes := make([]int32, rows*len(v.names))
	for i := range codes {
		codes[i] = absent
	}
	return &Labels{v: v, n: rows, codes: codes}
}

// Slot returns the tracked slot of the attribute named name, or -1 when
// the model tracks no such attribute (its values are then ignored, as
// AssignBatchCtx ignores map keys it does not track).
func (l *Labels) Slot(name []byte) int {
	for s, n := range l.v.names {
		if n == string(name) {
			return s
		}
	}
	return -1
}

// Set gives row's value of the attribute in slot s (from Slot, ≥ 0).
// A later Set of the same row and slot replaces the earlier one.
func (l *Labels) Set(row, s int, value []byte) {
	c, ok := l.v.codes[s][string(value)]
	if !ok {
		c = unseenCode(len(l.unseen))
		l.unseen = append(l.unseen, string(value))
	}
	l.codes[row*len(l.v.names)+s] = c
}

// setString is Set for a value held as a string.
func (l *Labels) setString(row, s int, value string) {
	c, ok := l.v.codes[s][value]
	if !ok {
		c = unseenCode(len(l.unseen))
		l.unseen = append(l.unseen, value)
	}
	l.codes[row*len(l.v.names)+s] = c
}

// mapLabels resolves AssignBatchCtx's per-row maps to labels; nil
// sensitive gives nil labels, and a nil map a row with no values.
func (a *Assigner) mapLabels(sensitive []map[string]string) *Labels {
	if sensitive == nil {
		return nil
	}
	l := a.NewLabels(len(sensitive))
	for i, sv := range sensitive {
		if sv == nil {
			continue
		}
		for s, name := range l.v.names {
			if v, ok := sv[name]; ok {
				l.setString(i, s, v)
			}
		}
	}
	return l
}

// checkLabels reports labels that do not belong to a or to rows.
func (a *Assigner) checkLabels(l *Labels, rows int) error {
	switch {
	case l == nil:
		return nil
	case l.v != a.stats.vocab:
		return fmt.Errorf("serve: labels were built for another model than %q", a.m.Name)
	case l.n != rows:
		return fmt.Errorf("serve: %d sensitive records for %d rows", l.n, rows)
	}
	return nil
}
