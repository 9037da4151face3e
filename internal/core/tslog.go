package core

import (
	"sort"

	"github.com/paper-repro/ccbm/internal/spec"
)

// tsEntry is one timestamped update in a tsLog.
type tsEntry[TS any] struct {
	ts TS
	in spec.Input
}

// tsLog is the timestamp-ordered update log of the convergent modes
// (EC, CCv), shared by Replica and Station objects: updates are
// inserted at their timestamp position and reads fold base+log through
// a replay cache. The cache discipline: cacheState is the fold of base
// plus log[:cacheLen]; an insertion below cacheLen invalidates it, and
// every replay of a prefix at least cacheLen long advances it to that
// prefix. The caller provides the strict total order on timestamps.
type tsLog[TS any] struct {
	t    spec.ADT
	less func(a, b TS) bool

	log        []tsEntry[TS]
	base       spec.State
	cacheState spec.State
	cacheLen   int
}

func newTSLog[TS any](t spec.ADT, less func(a, b TS) bool) *tsLog[TS] {
	base := t.Init()
	return &tsLog[TS]{t: t, less: less, base: base, cacheState: base}
}

// insert places the update at its timestamp-ordered position and
// returns that position.
func (l *tsLog[TS]) insert(ts TS, in spec.Input) int {
	pos := sort.Search(len(l.log), func(i int) bool { return l.less(ts, l.log[i].ts) })
	l.log = append(l.log, tsEntry[TS]{})
	copy(l.log[pos+1:], l.log[pos:])
	l.log[pos] = tsEntry[TS]{ts: ts, in: in}
	if pos < l.cacheLen {
		// Mid-log insertion invalidates the replay cache.
		l.cacheState = l.base
		l.cacheLen = 0
	}
	return pos
}

// replay folds base plus log[:n], advancing the cache when possible.
func (l *tsLog[TS]) replay(n int) spec.State {
	if n >= l.cacheLen {
		q := l.cacheState
		for i := l.cacheLen; i < n; i++ {
			q, _ = l.t.Step(q, l.log[i].in)
		}
		l.cacheState, l.cacheLen = q, n
		return q
	}
	q := l.base
	for i := 0; i < n; i++ {
		q, _ = l.t.Step(q, l.log[i].in)
	}
	return q
}

// state returns the fold of the whole log.
func (l *tsLog[TS]) state() spec.State { return l.replay(len(l.log)) }

// size returns the number of live log entries.
func (l *tsLog[TS]) size() int { return len(l.log) }

// seed resets the log to an externally produced base state with no
// live entries — the migration import path. Every update folded into
// base is strictly "in the past" of any entry inserted later, the same
// invariant compact establishes for its folded prefix.
func (l *tsLog[TS]) seed(base spec.State) {
	l.base = base
	l.log = nil
	l.cacheState, l.cacheLen = base, 0
}

// compact folds away the longest prefix of entries satisfying stable
// (which must be downward closed in the log order: once false, false
// for every later entry) and returns how many were removed. The
// soundness condition — no future insert may be ordered inside the
// folded prefix — is the caller's to establish (see Replica.CompactLog
// and Station.Compact).
func (l *tsLog[TS]) compact(stable func(TS) bool) int {
	idx := sort.Search(len(l.log), func(i int) bool { return !stable(l.log[i].ts) })
	if idx == 0 {
		return 0
	}
	q := l.base
	for i := 0; i < idx; i++ {
		q, _ = l.t.Step(q, l.log[i].in)
	}
	l.base = q
	l.log = append([]tsEntry[TS](nil), l.log[idx:]...)
	l.cacheState, l.cacheLen = l.base, 0
	return idx
}
