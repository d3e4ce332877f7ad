package main

import "repro/internal/cas"

// timedStore is a cas.Store decorator that records a span for every Put,
// Link, Resolve and Get it forwards. It changes nothing the store returns.
type timedStore struct {
	cas.Store
	tr *tracer
}

func (s timedStore) Put(data []byte) (cas.Key, error) {
	i := s.tr.begin("cas.put", "", "", s.tr.cur.Load())
	k, err := s.Store.Put(data)
	s.tr.finish(i, int64(len(data)))
	return k, err
}

func (s timedStore) Get(k cas.Key) ([]byte, bool, error) {
	i := s.tr.begin("cas.get", "", "", s.tr.cur.Load())
	data, ok, err := s.Store.Get(k)
	s.tr.finish(i, int64(len(data)))
	return data, ok, err
}

func (s timedStore) Link(name, target cas.Key) error {
	i := s.tr.begin("cas.link", "", "", s.tr.cur.Load())
	err := s.Store.Link(name, target)
	s.tr.finish(i, 0)
	return err
}

func (s timedStore) Resolve(name cas.Key) (cas.Key, bool, error) {
	i := s.tr.begin("cas.resolve", "", "", s.tr.cur.Load())
	k, ok, err := s.Store.Resolve(name)
	var found int64
	if ok {
		found = 1
	}
	s.tr.finish(i, found)
	return k, ok, err
}
