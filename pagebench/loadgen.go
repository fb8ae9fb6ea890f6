package main

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"cachegenie/internal/social"
	"cachegenie/internal/sqldb"
	harness "cachegenie/internal/workload"
)

// pagesPerSession is the paper's §5.1 session: Login, ten pages, Logout.
const pagesPerSession = 12

// seqBase keeps page sequence numbers clear of the seeded rows; a retried
// page gets its sequence number plus retrySeq, so a retried CreateBM never
// reuses the URL its first attempt may already have inserted.
const (
	seqBase  = 1 << 20
	retrySeq = 1 << 40
)

type session struct {
	uid   int64
	pages [pagesPerSession]social.PageType
}

// makeSessions generates n sessions from rng: users drawn by the paper's
// zipf session model with parameter a, in-session pages with writePct%
// writes split CreateBM:AcceptFR = 1:1 and reads split
// LookupBM:LookupFBM = 5:3.
func makeSessions(rng *rand.Rand, n, users int, a float64, writePct int) []session {
	sampler := harness.NewUserSampler(users, a, nil)
	out := make([]session, n)
	for i := range out {
		s := &out[i]
		s.uid = int64(sampler.Sample(rng))
		s.pages[0] = social.PageLogin
		s.pages[pagesPerSession-1] = social.PageLogout
		for j := 1; j < pagesPerSession-1; j++ {
			write := rng.Intn(100) < writePct
			switch {
			case write && rng.Intn(2) == 0:
				s.pages[j] = social.PageCreateBM
			case write:
				s.pages[j] = social.PageAcceptFR
			case rng.Intn(8) < 5:
				s.pages[j] = social.PageLookupBM
			default:
				s.pages[j] = social.PageLookupFBM
			}
		}
	}
	return out
}

func isRead(p social.PageType) bool {
	return p == social.PageLookupBM || p == social.PageLookupFBM
}

// phaseResult is one closed-loop phase.
type phaseResult struct {
	Elapsed  time.Duration // page loads plus the final invalidation drain
	Drain    time.Duration // the final FlushInvalidations alone
	Pages    int
	Failed   int // page loads still failing after the one lock-timeout retry
	Retries  int
	ReadNs   []int64 // per-page latency of LookupBM / LookupFBM
	WriteNs  []int64 // per-page latency of CreateBM, AcceptFR, Login, Logout
	FirstErr error
}

// runPhase serves the sessions from a closed loop of clients: each client
// takes the next session and loads its pages back to back with no think
// time. seqOffset numbers the pages of this phase (distinct across
// phases). With a tracer, each page load is a root span.
func runPhase(st *stack, sessions []session, clients int, seqOffset int64, tr *tracer) phaseResult {
	type clientOut struct {
		read, write []int64
		failed      int
		retries     int
		err         error
	}
	outs := make([]clientOut, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(out *clientOut) {
			defer wg.Done()
			for {
				si := int(next.Add(1) - 1)
				if si >= len(sessions) {
					return
				}
				s := &sessions[si]
				for j, p := range s.pages {
					idx := int64(si*pagesPerSession + j)
					seq := seqBase + seqOffset + idx
					var tl *lane
					var ti int32
					if tr != nil {
						tl, ti = tr.beginPage(int32(idx))
					}
					t0 := time.Now()
					err := st.app.RunPage(p, s.uid, seq)
					if err != nil && errors.Is(err, sqldb.ErrLockTimeout) {
						out.retries++
						err = st.app.RunPage(p, s.uid, seq+retrySeq)
					}
					d := int64(time.Since(t0))
					if tr != nil {
						tr.endPage(tl, ti)
					}
					if err != nil {
						out.failed++
						if out.err == nil {
							out.err = err
						}
					}
					if isRead(p) {
						out.read = append(out.read, d)
					} else {
						out.write = append(out.write, d)
					}
				}
			}
		}(&outs[c])
	}
	wg.Wait()
	drainStart := time.Now()
	st.genie.FlushInvalidations()
	end := time.Now()
	res := phaseResult{Elapsed: end.Sub(start), Drain: end.Sub(drainStart)}
	for _, o := range outs {
		res.ReadNs = append(res.ReadNs, o.read...)
		res.WriteNs = append(res.WriteNs, o.write...)
		res.Failed += o.failed
		res.Retries += o.retries
		if res.FirstErr == nil {
			res.FirstErr = o.err
		}
	}
	res.Pages = len(res.ReadNs) + len(res.WriteNs)
	return res
}
