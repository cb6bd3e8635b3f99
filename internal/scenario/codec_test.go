package scenario

import (
	"reflect"
	"strings"
	"testing"
)

func TestCodecRoundTripsPacks(t *testing.T) {
	fab := testFabric(t)
	schedules := []*Schedule{GrayMix(fab, 13)} // inject-gray actions
	for _, name := range PackNames {
		s, _ := Pack(name, fab, 13)
		schedules = append(schedules, s)
	}
	for _, s := range schedules {
		name := s.Name
		data, err := EncodeSchedule(s)
		if err != nil {
			t.Fatalf("encode %q: %v", name, err)
		}
		got, err := DecodeSchedule(data)
		if err != nil {
			t.Fatalf("decode %q: %v", name, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("pack %q did not round-trip", name)
		}
	}
}

func TestEncodeRejectsInvalidSchedule(t *testing.T) {
	s := validSchedule()
	s.Horizon = 0
	if _, err := EncodeSchedule(s); err == nil {
		t.Fatal("EncodeSchedule accepted an invalid schedule")
	}
}

func TestDecodeRejectsHostileInput(t *testing.T) {
	valid, err := EncodeSchedule(validSchedule())
	if err != nil {
		t.Fatalf("encode fixture: %v", err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"not json", []byte("horizon: 10m")},
		{"truncated", valid[:len(valid)/2]},
		{"trailing garbage", append(append([]byte{}, valid...), []byte("{}")...)},
		{"unknown field", []byte(`{"name":"x","seed":1,"horizon":1000000000,"actions":[],"extra":true}`)},
		{"wrong type", []byte(`{"name":1}`)},
		{"invalid after parse", []byte(`{"name":"x","seed":1,"horizon":0,"actions":[]}`)},
		{"unknown kind", []byte(`{"name":"x","seed":1,"horizon":1000000000,"actions":[{"at":0,"kind":"nope"}]}`)},
		{"oversize", []byte("[" + strings.Repeat(" ", MaxEncodedSchedule) + "]")},
	}
	for _, tc := range cases {
		if _, err := DecodeSchedule(tc.data); err == nil {
			t.Errorf("%s: DecodeSchedule accepted", tc.name)
		}
	}
}

func TestDecodeAcceptsMinimalSchedule(t *testing.T) {
	s, err := DecodeSchedule([]byte(`{"name":"tiny","seed":3,"horizon":60000000000,"actions":[{"at":0,"kind":"noop"}]}`))
	if err != nil {
		t.Fatalf("decode minimal: %v", err)
	}
	if s.Name != "tiny" || len(s.Actions) != 1 || s.Actions[0].Kind != ActNoop {
		t.Fatalf("minimal schedule mis-parsed: %+v", s)
	}
}
