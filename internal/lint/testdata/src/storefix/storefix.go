// Package store (directory storefix) seeds the genbump violations: a
// function that mutates through the Backend interface without advancing
// the store's stamps, and one that bumps the global counter directly
// instead of through Store.advance. The analyzer keys on the package
// being named "store", the interface being named "Backend" and the
// method being Store.advance, so this fixture deliberately reuses all
// three names.
package store

// Backend is the fixture's mutable storage interface; the method set
// mirrors the mutators the analyzer tracks.
type Backend interface {
	Put(key string, val []byte) error
	PutBatch(kv map[string][]byte) error
	Delete(key string) error
	DeleteBatch(keys []string) error
}

type counter struct{ v uint64 }

func (c *counter) Add(d uint64) uint64 { c.v += d; return c.v }

type Store struct {
	b   Backend
	gen counter
}

// advance is the one method that moves the stamps.
func (s *Store) advance() { s.gen.Add(1) }

func (s *Store) putAdvanced(key string, val []byte) error {
	err := s.b.Put(key, val)
	s.advance()
	return err
}

func (s *Store) putUnbumped(key string, val []byte) error {
	return s.b.Put(key, val) // want `putUnbumped calls Backend.Put without advancing the store's stamps`
}

// putGenBumped moves only the global counter: session-scoped answers
// would survive the put.
func (s *Store) putGenBumped(key string, val []byte) error {
	err := s.b.Put(key, val) // want `putGenBumped calls Backend.Put without advancing the store's stamps`
	s.gen.Add(1)
	return err
}

func (s *Store) deleteDeferredAdvance(keys []string) error {
	defer s.advance()
	return s.b.DeleteBatch(keys)
}

// putRaw's bump lives in its callers, which batch several raw puts
// under one generation step.
//
// provlint:no-genbump callers batch raw puts under one bump
func (s *Store) putRaw(key string, val []byte) error {
	return s.b.Put(key, val)
}
