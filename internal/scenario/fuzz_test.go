package scenario

import (
	"reflect"
	"testing"

	"skeletonhunter/internal/topology"
)

// FuzzDecodeSchedule fuzzes the schedule codec. The invariant: any
// input DecodeSchedule accepts must re-encode and re-decode to a
// deep-equal schedule (the codec is a bijection on its accepted set),
// and decoding must never panic on hostile bytes.
func FuzzDecodeSchedule(f *testing.F) {
	fab, err := topology.New(topology.Spec{Pods: 1, HostsPerPod: 8, Rails: 8, AggPerPod: 2})
	if err != nil {
		f.Fatalf("fabric: %v", err)
	}
	for _, name := range PackNames {
		s, _ := Pack(name, fab, 17)
		data, err := EncodeSchedule(s)
		if err != nil {
			f.Fatalf("encode %q: %v", name, err)
		}
		f.Add(data)
	}
	for _, s := range []*Schedule{validSchedule(), GrayMix(fab, 17)} {
		if data, err := EncodeSchedule(s); err == nil {
			f.Add(data)
		}
	}
	f.Add([]byte(`{"name":"tiny","seed":3,"horizon":60000000000,"actions":[{"at":0,"kind":"noop"}]}`))
	f.Add([]byte(`{"name":"x","seed":1,"horizon":1000000000,"actions":[{"at":0,"kind":"submit","tp":8,"pp":2,"dp":2}]}`))
	f.Add([]byte(`{"name":1}`))
	f.Add([]byte(`{"actions":[{"at":-1,"kind":"clear","ref":9}]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`{"name":"x","seed":1,"horizon":1000000000,"actions":[]}{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSchedule(data)
		if err != nil {
			return
		}
		// Accepted schedules must validate (DecodeSchedule's contract).
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted schedule fails Validate: %v", err)
		}
		enc, err := EncodeSchedule(s)
		if err != nil {
			t.Fatalf("accepted schedule fails re-encode: %v", err)
		}
		again, err := DecodeSchedule(enc)
		if err != nil {
			t.Fatalf("re-encoded schedule fails decode: %v", err)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("round-trip instability:\nfirst:  %+v\nsecond: %+v", s, again)
		}
	})
}
