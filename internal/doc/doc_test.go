package doc

import "testing"

func TestSerializeForIndex(t *testing.T) {
	d := &Document{Title: "Meagan Good", Text: "An actress."}
	if got := d.SerializeForIndex(); got != "Meagan Good An actress." {
		t.Errorf("SerializeForIndex = %q", got)
	}
	d2 := &Document{Text: "No title."}
	if got := d2.SerializeForIndex(); got != "No title." {
		t.Errorf("SerializeForIndex untitled = %q", got)
	}
}
