package object

import "testing"

func TestProject(t *testing.T) {
	a := Object{ID: 7, Attrs: []int32{1, 2, 3, 4}}
	p := a.Project(2)
	if p.ID != 7 || len(p.Attrs) != 2 || p.Attrs[0] != 1 || p.Attrs[1] != 2 {
		t.Errorf("Project = %+v", p)
	}
	// Appending to the projection must not clobber the original.
	_ = append(p.Attrs, 99)
	if a.Attrs[2] != 3 {
		t.Error("Project must use a full slice expression to protect the original")
	}
}

func TestStreamCyclesAndProjects(t *testing.T) {
	base := []Object{
		{ID: 0, Attrs: []int32{1, 10}},
		{ID: 1, Attrs: []int32{2, 20}},
	}
	s := NewStream(base, 5, 1)
	var got []Object
	for {
		o, ok := s.Next()
		if !ok {
			break
		}
		got = append(got, o)
	}
	if len(got) != 5 {
		t.Fatalf("stream yielded %d objects, want 5", len(got))
	}
	for i, o := range got {
		if o.ID != i {
			t.Errorf("object %d has ID %d; ids must be sequential", i, o.ID)
		}
		if len(o.Attrs) != 1 {
			t.Errorf("object %d not projected: %v", i, o.Attrs)
		}
		if want := base[i%2].Attrs[0]; o.Attrs[0] != want {
			t.Errorf("object %d attr = %d, want %d (cyclic replay)", i, o.Attrs[0], want)
		}
	}
	s.Reset()
	if o, ok := s.Next(); !ok || o.ID != 0 {
		t.Errorf("after Reset: Next = %+v, %v; want object 0", o, ok)
	}
}

func TestStreamEmptyBasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty base should panic")
		}
	}()
	NewStream(nil, 5, 0)
}
