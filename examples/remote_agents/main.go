// Remote agents: exercise the real deployment path — the controller
// serves ping lists over TCP with per-task HMAC authentication (§6),
// and agents running as separate goroutines (standing in for sidecar
// processes) register, fetch targets, probe, and stream reports back
// over the wire.
//
//	go run ./examples/remote_agents
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/hunter"
	"skeletonhunter/internal/parallelism"
	"skeletonhunter/internal/transport"
)

func main() {
	d, err := hunter.New(hunter.Options{Seed: 5, Hosts: 8})
	if err != nil {
		log.Fatal(err)
	}
	task, err := d.SubmitTask(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}})
	if err != nil {
		log.Fatal(err)
	}
	d.Run(15 * time.Minute) // containers running

	srv, err := d.ServeTransport("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("controller serving on %s\n", srv.Addr())

	secret, _ := d.TaskSecret(task.ID)

	// One wire-connected agent per container.
	var wg sync.WaitGroup
	for _, c := range task.Containers {
		wg.Add(1)
		go func(container int) {
			defer wg.Done()
			cli, err := transport.Dial(srv.Addr(), string(task.ID), container, secret)
			if err != nil {
				log.Printf("agent %d: %v", container, err)
				return
			}
			defer cli.Close()
			if err := cli.Register(); err != nil {
				log.Printf("agent %d register: %v", container, err)
				return
			}
			targets, err := cli.PingList()
			if err != nil {
				log.Printf("agent %d pinglist: %v", container, err)
				return
			}
			// Probe each target through the simulated data plane and
			// report the measurements over the wire.
			var reports []transport.ProbeReport
			for i, tg := range targets {
				src := task.Containers[tg.SrcContainer].Addrs[tg.SrcRail]
				dst := task.Containers[tg.DstContainer].Addrs[tg.DstRail]
				res := d.Net.Probe(src, dst, uint64(i))
				var path []string
				for _, l := range res.UnderlayPath {
					path = append(path, string(d.Fabric.LinkByIndex(l)))
				}
				reports = append(reports, transport.ProbeReport{
					SrcContainer: tg.SrcContainer, SrcRail: tg.SrcRail,
					DstContainer: tg.DstContainer, DstRail: tg.DstRail,
					AtNanos:  int64(d.Engine.Now()),
					RTTNanos: int64(res.RTT),
					Lost:     res.Lost,
					Path:     path,
				})
			}
			if err := cli.Report(reports); err != nil {
				log.Printf("agent %d report: %v", container, err)
				return
			}
			fmt.Printf("agent c%d: %d targets probed and reported over TCP\n", container, len(targets))
		}(c.Index)
	}
	wg.Wait()

	// A forged client (wrong secret) is locked out.
	evil, err := transport.Dial(srv.Addr(), string(task.ID), 0, transport.Secret("forged"))
	if err != nil {
		log.Fatal(err)
	}
	defer evil.Close()
	if _, err := evil.PingList(); err != nil {
		fmt.Printf("forged tenant rejected: %v\n", err)
	}

	fmt.Printf("log service retained %d probe records for %s\n",
		len(d.Log.ByTask(string(task.ID), 0)), task.ID)
}
