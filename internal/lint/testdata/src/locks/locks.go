// Package locks seeds lockscope violations: slow or blocking work
// while a sync mutex is held.
package locks

import (
	"sync"
	"time"

	"example.com/lintdata/iso"
	"example.com/lintdata/tenant"
)

type server struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

func (s *server) sleepHeld() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want "time.Sleep called while s.mu is held"
	s.mu.Unlock()
}

func (s *server) kernelHeld() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return iso.MCCS(100) // want "iso.MCCS called while s.mu is held"
}

func (s *server) readHeld() int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return iso.MCCS(s.n) // want "iso.MCCS called while s.rw is held"
}

// drainHeld holds the routing lock across a shard drain — the exact
// mistake the real registry avoids by detaching under the lock and
// draining outside it.
func (s *server) drainHeld() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return tenant.Drain("aids") // want "tenant.Drain called while s.mu is held"
}

// drainOutside detaches under the lock and drains after releasing it:
// the correct shape, never flagged.
func (s *server) drainOutside() error {
	s.mu.Lock()
	s.n--
	s.mu.Unlock()
	if err := tenant.Add("aids"); err != nil {
		return err
	}
	return tenant.Drain("aids")
}

// unlockFirst releases the lock before the slow work and must not be
// flagged.
func (s *server) unlockFirst() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	time.Sleep(time.Millisecond)
}

// spawned work runs on its own goroutine, not under the caller's lock.
func (s *server) goroutineOK() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() { time.Sleep(time.Millisecond) }()
	s.n++
}

// closureLocked holds the lock only inside the closure: the region
// ends with the literal, so the sleep after the call is not under it.
func (s *server) closureLocked() {
	inc := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.n++
	}
	inc()
	time.Sleep(time.Millisecond)
}

// closureSleepHeld sleeps inside the closure's own region, reported
// once, for the literal.
func (s *server) closureSleepHeld() {
	wait := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		time.Sleep(time.Millisecond) // want "time.Sleep called while s.mu is held in func literal"
	}
	wait()
}
