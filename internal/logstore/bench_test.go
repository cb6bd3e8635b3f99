package logstore

import (
	"fmt"
	"testing"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/overlay"
	"skeletonhunter/internal/probe"
	"skeletonhunter/internal/topology"
)

// fleetFab is the benchmark's fleet-steady fabric (512 hosts).
var fleetFab = func() *topology.Fabric {
	f, err := topology.New(topology.Production(512))
	if err != nil {
		panic(err)
	}
	return f
}()

// fleetRound synthesizes n records shaped like one probing round of the
// benchmark's fleet-steady workload: 42 tasks of 12 containers on 8
// rails, each probe on one ECMP path of its rail.
func fleetRound(n int, at time.Duration) []probe.Record {
	recs := make([]probe.Record, n)
	var v topology.PathView
	for i := range recs {
		task, src, rail := i%42, i/42%12, i/504%8
		dst := (src + 1 + i%11) % 12
		srcHost, dstHost := task*12+src, task*12+dst
		err := fleetFab.PathViewByHash(topology.NIC{Host: srcHost, Rail: rail}, topology.NIC{Host: dstHost, Rail: rail}, uint64(i), &v)
		if err != nil {
			panic(err)
		}
		recs[i] = probe.Record{
			Task:         cluster.TaskID(fmt.Sprintf("task-%d", task)),
			SrcContainer: src, SrcRail: rail,
			DstContainer: dst, DstRail: rail,
			Src: overlay.Addr{Host: srcHost, Rail: rail},
			Dst: overlay.Addr{Host: dstHost, Rail: rail},
			At:  at, RTT: 16 * time.Microsecond,
			Path: v.LinkOrdinals(nil),
		}
	}
	return recs
}

// fleetRing is the deployment's ring (1<<16 slots), filled past the
// wrap with fleet-shaped rounds.
func fleetRing() *Store {
	s := New(1<<16, fleetFab)
	for round := 0; round < 2; round++ {
		s.AppendBatch(fleetRound(44352, time.Duration(round)*time.Second))
	}
	return s
}

// BenchmarkAppendBatch is the write the round barrier pays: one
// fleet-steady round (44,352 records) into a full ring.
func BenchmarkAppendBatch(b *testing.B) {
	s := fleetRing()
	round := fleetRound(44352, 2*time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AppendBatch(round)
	}
}

// BenchmarkScan is the read cost the design accepts: every query walks
// the full ring.
func BenchmarkScan(b *testing.B) {
	s := fleetRing()
	var sink []probe.Record
	for _, q := range []struct {
		name string
		run  func() []probe.Record
	}{
		{"ByTask", func() []probe.Record { return s.ByTask("task-7", 0) }},
		{"ByContainer", func() []probe.Record { return s.ByContainer("task-7", 3, 0) }},
		{"ByRNIC", func() []probe.Record { return s.ByRNIC(7*12+3, 2, 0) }},
		{"BySwitch", func() []probe.Record { return s.BySwitch("tor/p2/r2", 0) }},
	} {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = q.run()
			}
			if len(sink) == 0 {
				b.Fatal("query matched nothing")
			}
		})
	}
}
