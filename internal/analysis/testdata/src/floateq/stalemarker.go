//fairvet:floateq outlived its comparison // want `//fairvet:floateq marker on a file with no floating-point ==/!=`
package floateq

// The comparison the marker once justified is gone; only an exact
// integer comparison is left, so the marker must go too.
func intsOnly(a, b int) bool {
	return a == b
}
