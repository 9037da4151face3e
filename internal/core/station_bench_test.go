package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/paper-repro/ccbm/internal/net"
	"github.com/paper-repro/ccbm/internal/spec"
)

// BenchmarkStationInvoke is the station layer's serving benchmark:
// closed-loop sessions spread over a 3-replica group on the live
// transport, each invoking a 2:1 inc:get mix over 16 Counters as fast
// as its previous op completes. It reports throughput (ops/s) and the
// mean per-op latency a session sees (lat-us, by Little's law:
// sessions × elapsed / ops). batch=1 is the unbatched reference: at
// one session, batched latency should match it.
func BenchmarkStationInvoke(b *testing.B) {
	const replicas, objects = 3, 16
	inc, get := spec.NewInput("inc", 1), spec.NewInput("get")
	for _, mode := range []Mode{ModeCC, ModeCCv} {
		for _, batchOps := range []int{1, 32} {
			for _, sessions := range []int{1, 8, 64} {
				name := fmt.Sprintf("%v/batch=%d/sessions=%d", mode, batchOps, sessions)
				b.Run(name, func(b *testing.B) {
					lv := net.NewLive(replicas)
					defer lv.Close()
					sts := make([]*Station, replicas)
					for i := range sts {
						sts[i] = NewStation(lv, i, mode, StationConfig{BatchOps: batchOps})
					}
					names := make([]string, objects)
					for i := range names {
						names[i] = fmt.Sprintf("c%d", i)
						for _, st := range sts {
							if err := st.EnsureObject(names[i], "Counter"); err != nil {
								b.Fatal(err)
							}
						}
					}
					var next atomic.Int64
					var wg sync.WaitGroup
					b.ResetTimer()
					for s := 0; s < sessions; s++ {
						wg.Add(1)
						go func(s int) {
							defer wg.Done()
							st := sts[s%replicas]
							for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
								in := inc
								if i%3 == 0 {
									in = get
								}
								if _, err := st.Invoke(names[int(i)%objects], in); err != nil {
									b.Error(err)
									return
								}
							}
						}(s)
					}
					wg.Wait()
					b.StopTimer()
					secs := b.Elapsed().Seconds()
					b.ReportMetric(float64(b.N)/secs, "ops/s")
					b.ReportMetric(float64(sessions)*secs*1e6/float64(b.N), "lat-us")
				})
			}
		}
	}
}
