package mining

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// twoBlobs returns a matrix with two tight groups ({0,1,2} and {3,4,5})
// far apart.
func twoBlobs() Matrix {
	n := 6
	m := make(Matrix, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	d := func(i, j int, v float64) { m[i][j] = v; m[j][i] = v }
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			d(i, j, 0.1)
		}
	}
	for i := 3; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			d(i, j, 0.1)
		}
	}
	for i := 0; i < 3; i++ {
		for j := 3; j < 6; j++ {
			d(i, j, 0.9)
		}
	}
	return m
}

// withOutlier adds point 6 far from everything.
func withOutlier() Matrix {
	base := twoBlobs()
	n := 7
	m := make(Matrix, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < 6; i++ {
		copy(m[i], base[i])
		m[i] = append(m[i][:6], 0.95)
		m[6][i] = 0.95
	}
	return m
}

func TestKMedoidsTwoBlobs(t *testing.T) {
	res, err := KMedoids(twoBlobs(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assign[0] != res.Assign[1] || res.Assign[1] != res.Assign[2] {
		t.Fatalf("first blob split: %v", res.Assign)
	}
	if res.Assign[3] != res.Assign[4] || res.Assign[4] != res.Assign[5] {
		t.Fatalf("second blob split: %v", res.Assign)
	}
	if res.Assign[0] == res.Assign[3] {
		t.Fatalf("blobs merged: %v", res.Assign)
	}
	if len(res.Medoids) != 2 {
		t.Fatalf("medoids: %v", res.Medoids)
	}
	if res.Cost <= 0 || res.Cost > 1 {
		t.Fatalf("cost: %v", res.Cost)
	}
}

func TestKMedoidsDeterministic(t *testing.T) {
	m := twoBlobs()
	r1, _ := KMedoids(m, 2)
	r2, _ := KMedoids(m, 2)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("k-medoids must be deterministic")
	}
}

func TestKMedoidsKEqualsN(t *testing.T) {
	m := twoBlobs()
	res, err := KMedoids(m, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 0 {
		t.Fatalf("k=n must have zero cost: %v", res.Cost)
	}
}

func TestKMedoidsValidation(t *testing.T) {
	m := twoBlobs()
	for _, k := range []int{0, -1, 7} {
		if _, err := KMedoids(m, k); err == nil {
			t.Errorf("k=%d must error", k)
		}
	}
	if _, err := KMedoids(Matrix{{0, 1}}, 1); err == nil {
		t.Error("ragged matrix must error")
	}
}

func TestDBSCANTwoBlobs(t *testing.T) {
	labels, err := DBSCAN(twoBlobs(), 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 0, 1, 1, 1}
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("labels = %v, want %v", labels, want)
	}
}

func TestDBSCANNoise(t *testing.T) {
	labels, err := DBSCAN(withOutlier(), 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if labels[6] != Noise {
		t.Fatalf("point 6 should be noise: %v", labels)
	}
}

func TestDBSCANAllNoise(t *testing.T) {
	m := Matrix{{0, 1}, {1, 0}}
	labels, _ := DBSCAN(m, 0.1, 2)
	if labels[0] != Noise || labels[1] != Noise {
		t.Fatalf("labels = %v", labels)
	}
}

func TestDBSCANSingleCluster(t *testing.T) {
	m := twoBlobs()
	labels, _ := DBSCAN(m, 1.0, 2)
	for _, l := range labels {
		if l != 0 {
			t.Fatalf("eps=1 must give one cluster: %v", labels)
		}
	}
}

func TestDBSCANValidation(t *testing.T) {
	if _, err := DBSCAN(twoBlobs(), -1, 3); err == nil {
		t.Error("negative eps must error")
	}
	if _, err := DBSCAN(twoBlobs(), 0.5, 0); err == nil {
		t.Error("minPts=0 must error")
	}
}

func TestCompleteLinkTwoBlobs(t *testing.T) {
	labels, err := CompleteLink(twoBlobs(), 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 0, 1, 1, 1}
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("labels = %v, want %v", labels, want)
	}
}

func TestCompleteLinkExtremes(t *testing.T) {
	m := twoBlobs()
	all, _ := CompleteLink(m, 1)
	for _, l := range all {
		if l != 0 {
			t.Fatalf("k=1: %v", all)
		}
	}
	each, _ := CompleteLink(m, 6)
	if !reflect.DeepEqual(each, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("k=n: %v", each)
	}
}

func TestCompleteLinkChaining(t *testing.T) {
	// Complete link resists chaining: a chain 0-1-2 with gaps 0.4 merges
	// pairwise but the full chain has diameter 0.8.
	m := Matrix{
		{0, 0.4, 0.8},
		{0.4, 0, 0.4},
		{0.8, 0.4, 0},
	}
	labels, _ := CompleteLink(m, 2)
	// The first merge is the lexicographically smallest of the 0.4 ties:
	// {0,1}; 2 stays alone.
	if !reflect.DeepEqual(labels, []int{0, 0, 1}) {
		t.Fatalf("labels = %v", labels)
	}
}

func TestOutliers(t *testing.T) {
	out, err := Outliers(withOutlier(), 0.9, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, false, false, false, false, false, true}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("outliers = %v", out)
	}
}

func TestOutliersEdgeCases(t *testing.T) {
	if out, _ := Outliers(Matrix{{0}}, 0.9, 0.5); out[0] {
		t.Fatal("singleton cannot be an outlier")
	}
	if _, err := Outliers(twoBlobs(), 0, 0.5); err == nil {
		t.Fatal("p=0 must error")
	}
	if _, err := Outliers(twoBlobs(), 1.1, 0.5); err == nil {
		t.Fatal("p>1 must error")
	}
	// With p=1 and D=0, everything is an outlier (all others > 0 away).
	out, _ := Outliers(twoBlobs(), 1, 0)
	for i, o := range out {
		if !o {
			t.Fatalf("point %d should be outlier at D=0: %v", i, out)
		}
	}
}

func TestKNN(t *testing.T) {
	m := withOutlier()
	nn, err := KNN(m, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(nn, []int{1, 2}) {
		t.Fatalf("knn = %v", nn)
	}
	// Farthest from 0 is 6; a full ranking ends with it.
	all, _ := KNN(m, 0, 6)
	if all[5] != 6 {
		t.Fatalf("full ranking = %v", all)
	}
}

func TestKNNValidation(t *testing.T) {
	m := twoBlobs()
	if _, err := KNN(m, -1, 2); err == nil {
		t.Error("bad q must error")
	}
	if _, err := KNN(m, 0, 6); err == nil {
		t.Error("k > n-1 must error")
	}
	if nn, err := KNN(m, 0, 0); err != nil || len(nn) != 0 {
		t.Error("k=0 must return empty")
	}
}

// TestQuickPermutationInvariance: relabeling points by a permutation and
// permuting the matrix accordingly must permute k-medoids assignments the
// same way. This is the structural property that makes "equal matrices →
// equal mining results" meaningful.
func TestQuickKMedoidsPermutationEquivariance(t *testing.T) {
	base := twoBlobs()
	n := len(base)
	f := func(seed uint8) bool {
		// Build a deterministic permutation from the seed.
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		s := int(seed)
		for i := n - 1; i > 0; i-- {
			j := (s + i*7) % (i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		// Permute matrix.
		pm := make(Matrix, n)
		for i := range pm {
			pm[i] = make([]float64, n)
			for j := range pm[i] {
				pm[i][j] = base[perm[i]][perm[j]]
			}
		}
		r1, err1 := KMedoids(base, 2)
		r2, err2 := KMedoids(pm, 2)
		if err1 != nil || err2 != nil {
			return false
		}
		// Same-cluster relation must be preserved under the permutation.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				same1 := r1.Assign[perm[i]] == r1.Assign[perm[j]]
				same2 := r2.Assign[i] == r2.Assign[j]
				if same1 != same2 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsNonSquare(t *testing.T) {
	bad := Matrix{{0, 1, 2}, {1, 0, 3}}
	if _, err := DBSCAN(bad, 0.5, 2); err == nil {
		t.Fatal("non-square matrix must error")
	}
	if _, err := CompleteLink(bad, 1); err == nil {
		t.Fatal("non-square matrix must error")
	}
	if _, err := Outliers(bad, 0.5, 0.5); err == nil {
		t.Fatal("non-square matrix must error")
	}
	if _, err := KNN(bad, 0, 1); err == nil {
		t.Fatal("non-square matrix must error")
	}
}

func TestDistancesInZeroOneStayFinite(t *testing.T) {
	// Degenerate all-zero matrix: one cluster, no outliers.
	n := 5
	m := make(Matrix, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	res, err := KMedoids(m, 2)
	if err != nil || math.IsNaN(res.Cost) {
		t.Fatalf("degenerate k-medoids: %v %v", res, err)
	}
	labels, _ := DBSCAN(m, 0.5, 2)
	for _, l := range labels {
		if l != 0 {
			t.Fatalf("all-equal points must form one cluster: %v", labels)
		}
	}
	out, _ := Outliers(m, 0.5, 0.5)
	for _, o := range out {
		if o {
			t.Fatalf("no outliers expected: %v", out)
		}
	}
}
