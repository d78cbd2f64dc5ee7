// Fixture for the heapkey check: a miniature indexed min-heap whose
// ordering keys (item.key, item.idx) are registered in the annotation
// table with owner minheap and allowed writer rekey.
package heapkey

// item is heap-organized; key orders it, idx is its heap slot, and
// slots its position in two more indexed heaps.
type item struct {
	key   int64
	idx   int
	val   string
	slots [2]int
}

// minheap owns the ordering keys: all its methods may write them.
type minheap struct {
	items []*item
}

func (h *minheap) push(it *item) {
	it.idx = len(h.items)
	h.items = append(h.items, it)
	h.siftUp(it.idx)
}

func (h *minheap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].key <= h.items[i].key {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		h.items[i].idx = i
		h.items[p].idx = p
		i = p
	}
}

// rekey is the allow-listed update-then-fix protocol.
func rekey(h *minheap, it *item, key int64) {
	it.key = key
	h.siftUp(it.idx)
}

// ---------------------------------------------------------------------
// True positives.

// badDirectWrite mutates an ordering key outside the heap discipline.
func badDirectWrite(it *item) {
	it.key = 7
}

// badIncrement mutates the index slot in place.
func badIncrement(it *item) {
	it.idx++
}

// badAddress leaks a pointer through which heap order can be mutated.
func badAddress(it *item) *int64 {
	return &it.key
}

// badElementWrite writes one element of an array-valued index field.
func badElementWrite(it *item) {
	it.slots[1] = 4
}

// ---------------------------------------------------------------------
// Accepted negatives.

// okValueWrite touches a non-key field.
func okValueWrite(it *item) {
	it.val = "renamed"
}

// okReadKey only reads the keys.
func okReadKey(it *item) int64 {
	if it.idx >= 0 && it.slots[0] >= 0 {
		return it.key
	}
	return -1
}

// ---------------------------------------------------------------------
// Suppression.

// suppressedWrite shows //lint:allow is honoured.
func suppressedWrite(it *item) {
	it.key = 9 //lint:allow heapkey fixture: suppression must be honoured
}
