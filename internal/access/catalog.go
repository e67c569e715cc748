package access

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/bounded-eval/beas/internal/schema"
	"github.com/bounded-eval/beas/internal/storage"
)

// Schema is an access schema A: a set of access constraints with their
// indices, plus the statistics the BE Query Planner consumes. It is the
// Metadata module of the paper's AS Catalog.
type Schema struct {
	db    *schema.Database
	store *storage.Store

	mu          sync.RWMutex
	constraints []*Constraint
	indexes     map[string]*Index // by Constraint.ID()
	byRel       map[string][]*Constraint

	// boundEpoch advances whenever index maintenance changes a bound the
	// checker reads without the constraint set itself changing: an
	// auto-widened N, an index invalidated by a violation, a Retighten.
	boundEpoch atomic.Uint64
}

// BoundEpoch returns the schema's bound epoch. A checker verdict deduced
// at one epoch is still what Check would return while the epoch (and the
// constraint set) are unchanged; read it before running the checker.
func (s *Schema) BoundEpoch() uint64 { return s.boundEpoch.Load() }

// NewSchema creates an empty access schema over the given store.
func NewSchema(store *storage.Store) *Schema {
	return &Schema{
		db:      store.DB,
		store:   store,
		indexes: make(map[string]*Index),
		byRel:   make(map[string][]*Constraint),
	}
}

// Register validates c against the data, builds its index and adds it to
// the schema. With autoWiden the bound N is widened to the observed
// maximum instead of failing; this mirrors discovery, where N is
// "aggregated from historical datasets" (paper Example 1).
func (s *Schema) Register(c *Constraint, autoWiden bool) (*Index, error) {
	t, ok := s.store.Table(c.Rel)
	if !ok {
		return nil, fmt.Errorf("access: no table for relation %q", c.Rel)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.indexes[c.ID()]; dup {
		return nil, fmt.Errorf("access: constraint %v already registered", c)
	}
	// Build the index and attach it as a mutation observer atomically:
	// ObserveBuild holds the table lock across both, so a concurrent
	// insert lands either in the scanned snapshot or in a subsequent
	// OnInsert notification — never in both, never in neither.
	idx, err := newIndex(c, t, autoWiden)
	if err != nil {
		return nil, err
	}
	idx.epoch = &s.boundEpoch
	if err := t.ObserveBuild(idx, idx.buildFrom); err != nil {
		return nil, err
	}
	s.constraints = append(s.constraints, c)
	s.indexes[c.ID()] = idx
	rel := strings.ToLower(c.Rel)
	s.byRel[rel] = append(s.byRel[rel], c)
	return idx, nil
}

// Unregister removes a constraint and detaches its index.
func (s *Schema) Unregister(c *Constraint) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx, ok := s.indexes[c.ID()]
	if !ok {
		return false
	}
	if t, ok := s.store.Table(c.Rel); ok {
		t.Unobserve(idx)
	}
	delete(s.indexes, c.ID())
	rel := strings.ToLower(c.Rel)
	rm := func(list []*Constraint) []*Constraint {
		for i, x := range list {
			if x.ID() == c.ID() {
				return append(list[:i], list[i+1:]...)
			}
		}
		return list
	}
	s.byRel[rel] = rm(s.byRel[rel])
	s.constraints = rm(s.constraints)
	return true
}

// Constraints returns all registered constraints.
func (s *Schema) Constraints() []*Constraint {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]*Constraint(nil), s.constraints...)
}

// ForRelation returns the constraints on a relation (case-insensitive).
func (s *Schema) ForRelation(rel string) []*Constraint {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]*Constraint(nil), s.byRel[strings.ToLower(rel)]...)
}

// Index returns the index for a registered constraint.
func (s *Schema) Index(c *Constraint) (*Index, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	idx, ok := s.indexes[c.ID()]
	return idx, ok
}

// Len returns the number of registered constraints.
func (s *Schema) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.constraints)
}

// Footprint returns the total number of distinct (X, Y) pairs stored
// across all indices — the storage cost tracked by the discovery module.
func (s *Schema) Footprint() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total int64
	for _, ix := range s.indexes {
		total += ix.Tuples()
	}
	return total
}

// Retighten adjusts every constraint's bound N to the exact maximum
// observed in the data, clearing violation state — the periodic
// constraint adjustment of the Maintenance module. It returns the
// adjusted constraints in the paper's notation.
func (s *Schema) Retighten() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.constraints))
	for _, c := range s.constraints {
		if ix, ok := s.indexes[c.ID()]; ok {
			ix.Retighten()
		}
		out = append(out, c.String())
	}
	return out
}

// Conforms checks D |= A: every index bucket within its bound and no
// invalid indices.
func (s *Schema) Conforms() (bool, []Violation) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var all []Violation
	for _, ix := range s.indexes {
		if ok, v := ix.Conforms(); !ok {
			all = append(all, v...)
		}
		all = append(all, ix.Violations()...)
	}
	return len(all) == 0, all
}

// Write serialises the schema in the paper's textual notation, one
// constraint per line. Lines starting with # are comments.
func (s *Schema) Write(w io.Writer) error {
	for _, c := range s.Constraints() {
		if _, err := fmt.Fprintln(w, c.String()); err != nil {
			return err
		}
	}
	return nil
}

// ReadConstraints parses a constraint file (one constraint per line,
// # comments and blank lines ignored) against the database schema.
func ReadConstraints(db *schema.Database, r io.Reader) ([]*Constraint, error) {
	var out []*Constraint
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		c, err := ParseConstraint(db, text)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		out = append(out, c)
	}
	return out, sc.Err()
}
