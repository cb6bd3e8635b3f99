package overlay

import "testing"

// BenchmarkTraceForward resolves a healthy cross-host chain (vport →
// vswitch → vtep → vtep → vswitch → vport): the work of one probe
// trace-cache miss.
func BenchmarkTraceForward(b *testing.B) {
	n := NewNetwork()
	src, dst := addr(7, 0, 1), addr(7, 3, 1)
	for h := 0; h < 8; h++ { // a tenant-sized VNI, not a lone pair
		a := addr(7, h, 1)
		if err := n.AttachEndpoint(a); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := n.TraceForward(src, dst.IP)
		if err != nil || tr.Outcome != Reached || len(tr.Chain) != 6 {
			b.Fatalf("trace = %+v, %v", tr, err)
		}
	}
}
