//! Parameter sweeps: a base [`Scenario`] expanded over named axes into a
//! validated cartesian grid.
//!
//! The paper's results are all *sweeps* — node counts, GPU counts, cache
//! levels on/off, workload scale (Figs. 11–15) — so the driver API treats
//! them as first-class objects instead of hand-rolled loops. A [`Sweep`]
//! couples one base scenario with a list of [`Axis`] values; expansion
//! yields one [`SweepCell`] per point of the cartesian product, each
//! tagged with its coordinates (axis name → [`AxisValue`]) and carrying
//! the fully-applied [`Scenario`].
//!
//! Determinism: cell order is a pure function of the axis declaration
//! order — the first axis varies slowest, the last fastest (row-major
//! odometer) — and every expansion of the same sweep yields the same
//! cells in the same order.
//!
//! Validation: [`SweepBuilder::try_build`] rejects empty axes, duplicate
//! axis names, and any cell whose applied scenario fails
//! [`Scenario::validate`] (e.g. a `transport = socket` axis crossed with a
//! node count beyond [`crate::MAX_SOCKET_NODES`]), naming the offending
//! cell's coordinates.
//!
//! ```
//! use rocket_core::{Axis, NodeSpec, Scenario, Sweep};
//!
//! let base = Scenario::builder()
//!     .items(64)
//!     .node(NodeSpec::uniform(1, 8, 16))
//!     .build();
//! let sweep = Sweep::over(base)
//!     .axis(Axis::nodes([1, 2, 4]))
//!     .axis(Axis::distributed_cache([true, false]))
//!     .try_build()
//!     .unwrap();
//! assert_eq!(sweep.len(), 6);
//! let cells = sweep.cells();
//! // First axis slowest: nodes=1 pairs with both cache settings first.
//! assert_eq!(cells[0].coords[0].1.to_string(), "1");
//! assert_eq!(cells[1].coords[1].1.to_string(), "false");
//! assert_eq!(cells[5].scenario.nodes.len(), 4);
//! ```

use std::fmt;
use std::sync::Arc;

use rocket_comm::TransportKind;
use rocket_trace::json;

use crate::scenario::Scenario;

/// One coordinate value of a sweep cell — printable, comparable, and
/// serializable without knowing which scenario knob it drove.
#[derive(Debug, Clone, PartialEq)]
pub enum AxisValue {
    /// An unsigned integer coordinate (node counts, item counts, hops…).
    U64(u64),
    /// A real-valued coordinate (cache sizes in GB…).
    F64(f64),
    /// An on/off coordinate (distributed cache…).
    Bool(bool),
    /// A named coordinate (application, transport, policy…).
    Str(String),
}

impl AxisValue {
    /// Serializes the value as a JSON scalar.
    pub fn to_json(&self) -> String {
        match self {
            AxisValue::U64(v) => v.to_string(),
            AxisValue::F64(v) => json::num(*v).to_string(),
            AxisValue::Bool(v) => v.to_string(),
            AxisValue::Str(s) => {
                let mut out = String::new();
                json::push_str(&mut out, s);
                out
            }
        }
    }
}

impl fmt::Display for AxisValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AxisValue::U64(v) => write!(f, "{v}"),
            AxisValue::F64(v) => write!(f, "{v}"),
            AxisValue::Bool(v) => write!(f, "{v}"),
            AxisValue::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<u64> for AxisValue {
    fn from(v: u64) -> Self {
        AxisValue::U64(v)
    }
}

impl From<usize> for AxisValue {
    fn from(v: usize) -> Self {
        AxisValue::U64(v as u64)
    }
}

impl From<f64> for AxisValue {
    fn from(v: f64) -> Self {
        AxisValue::F64(v)
    }
}

impl From<bool> for AxisValue {
    fn from(v: bool) -> Self {
        AxisValue::Bool(v)
    }
}

impl From<&str> for AxisValue {
    fn from(v: &str) -> Self {
        AxisValue::Str(v.to_string())
    }
}

impl From<String> for AxisValue {
    fn from(v: String) -> Self {
        AxisValue::Str(v)
    }
}

/// How one axis point modifies the base scenario.
type Apply = Arc<dyn Fn(&mut Scenario) + Send + Sync>;

#[derive(Clone)]
struct AxisPoint {
    value: AxisValue,
    apply: Apply,
}

/// One named dimension of a sweep: a list of values, each paired with the
/// scenario mutation it stands for.
///
/// Constructors exist for the common scenario knobs ([`Axis::nodes`],
/// [`Axis::distributed_cache`], [`Axis::transport`], …); [`Axis::points`]
/// builds fully custom axes (arbitrary value labels, arbitrary scenario
/// edits — later axes see the mutations of earlier ones), and
/// [`Axis::tag`] attaches label-only coordinates that leave the scenario
/// untouched (useful to mark sub-studies before concatenation).
#[derive(Clone)]
pub struct Axis {
    name: String,
    points: Vec<AxisPoint>,
}

impl fmt::Debug for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Axis")
            .field("name", &self.name)
            .field(
                "values",
                &self.points.iter().map(|p| &p.value).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Axis {
    /// A fully custom axis: each point is a value label plus the scenario
    /// mutation it performs. Mutations run in axis declaration order, so a
    /// later axis may derive its effect from what earlier axes set (e.g. a
    /// cache-size axis computing slot counts from the workload an `app`
    /// axis selected).
    pub fn points<I, F>(name: impl Into<String>, points: I) -> Self
    where
        I: IntoIterator<Item = (AxisValue, F)>,
        F: Fn(&mut Scenario) + Send + Sync + 'static,
    {
        Self {
            name: name.into(),
            points: points
                .into_iter()
                .map(|(value, f)| AxisPoint {
                    value,
                    apply: Arc::new(f),
                })
                .collect(),
        }
    }

    /// A label-only axis: coordinates are recorded on every cell but the
    /// scenario is not modified.
    pub fn tag<I, V>(name: impl Into<String>, values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<AxisValue>,
    {
        Self::points(
            name,
            values
                .into_iter()
                .map(|v| (v.into(), |_: &mut Scenario| {})),
        )
    }

    /// Node-count axis (`nodes`): the topology becomes `count` copies of
    /// the (possibly axis-modified) scenario's first node.
    pub fn nodes(counts: impl IntoIterator<Item = usize>) -> Self {
        Self::points(
            "nodes",
            counts.into_iter().map(|count| {
                (AxisValue::from(count), move |s: &mut Scenario| {
                    if let Some(template) = s.nodes.first().cloned() {
                        s.nodes = vec![template; count];
                    }
                })
            }),
        )
    }

    /// Data-set-size axis (`n_items`): sets the workload's item count.
    pub fn items(counts: impl IntoIterator<Item = u64>) -> Self {
        Self::points(
            "n_items",
            counts.into_iter().map(|items| {
                (AxisValue::from(items), move |s: &mut Scenario| {
                    s.workload.items = items;
                })
            }),
        )
    }

    /// Level-3 distributed cache on/off axis (`distributed_cache`).
    pub fn distributed_cache(values: impl IntoIterator<Item = bool>) -> Self {
        Self::points(
            "distributed_cache",
            values.into_iter().map(|on| {
                (AxisValue::from(on), move |s: &mut Scenario| {
                    s.distributed_cache = on;
                })
            }),
        )
    }

    /// Cluster-transport axis (`transport`), labelled by
    /// [`TransportKind::label`].
    pub fn transport(kinds: impl IntoIterator<Item = TransportKind>) -> Self {
        Self::points(
            "transport",
            kinds.into_iter().map(|kind| {
                (AxisValue::from(kind.label()), move |s: &mut Scenario| {
                    s.transport = kind;
                })
            }),
        )
    }

    /// Distributed-lookup hop-limit axis (`hops`).
    pub fn hops(values: impl IntoIterator<Item = usize>) -> Self {
        Self::points(
            "hops",
            values.into_iter().map(|h| {
                (AxisValue::from(h), move |s: &mut Scenario| {
                    s.hops = h;
                })
            }),
        )
    }

    /// The axis name (one CSV column / JSON key per axis).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The value labels, in declaration order.
    pub fn values(&self) -> Vec<AxisValue> {
        self.points.iter().map(|p| p.value.clone()).collect()
    }

    /// Number of points on this axis.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the axis has no points (rejected by
    /// [`SweepBuilder::try_build`]).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// One point of an expanded sweep: its flat index, its coordinates, and
/// the scenario with every axis mutation applied.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Flat cell index in expansion order (row-major, first axis slowest).
    pub index: usize,
    /// `(axis name, value)` pairs, in axis declaration order.
    pub coords: Vec<(String, AxisValue)>,
    /// The base scenario with this cell's axis mutations applied.
    pub scenario: Scenario,
}

/// A base [`Scenario`] plus named axes, expanded once at construction
/// into a validated cartesian grid of [`SweepCell`]s. Build with
/// [`Sweep::over`]; run with [`crate::Study`].
#[derive(Debug, Clone)]
pub struct Sweep {
    base: Scenario,
    axes: Vec<Axis>,
    cells: Vec<SweepCell>,
}

/// Row-major expansion (first axis slowest, last axis fastest).
fn expand(base: &Scenario, axes: &[Axis]) -> Vec<SweepCell> {
    let total = axes.iter().map(|a| a.len()).product();
    let mut cells = Vec::with_capacity(total);
    for index in 0..total {
        // Row-major decode: the last axis has stride 1.
        let mut coords = Vec::with_capacity(axes.len());
        let mut scenario = base.clone();
        let mut stride = total;
        for axis in axes {
            stride /= axis.len();
            let point = &axis.points[(index / stride) % axis.len()];
            coords.push((axis.name.clone(), point.value.clone()));
            (point.apply)(&mut scenario);
        }
        cells.push(SweepCell {
            index,
            coords,
            scenario,
        });
    }
    cells
}

impl Sweep {
    /// Starts building a sweep around `base` (a sweep with no axes is a
    /// single cell: the base itself).
    pub fn over(base: Scenario) -> SweepBuilder {
        SweepBuilder {
            base,
            axes: Vec::new(),
        }
    }

    /// The base scenario axes mutate.
    pub fn base(&self) -> &Scenario {
        &self.base
    }

    /// The axes, in declaration order.
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// Axis names in declaration order (the coordinate/CSV column order).
    pub fn axis_names(&self) -> Vec<String> {
        self.axes.iter().map(|a| a.name.clone()).collect()
    }

    /// Number of grid cells (product of axis lengths; 1 with no axes).
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the grid is empty (never true for a built sweep — empty
    /// axes are rejected at construction).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The expanded grid — exactly the cells `try_build` validated.
    /// Deterministic and ordered: the same sweep always yields the same
    /// cells in the same row-major order (first axis slowest, last axis
    /// fastest).
    pub fn cells(&self) -> &[SweepCell] {
        &self.cells
    }
}

/// Builder for [`Sweep`] (see [`Sweep::over`]).
#[derive(Debug, Clone)]
pub struct SweepBuilder {
    base: Scenario,
    axes: Vec<Axis>,
}

impl SweepBuilder {
    /// Appends one axis to the grid.
    pub fn axis(mut self, axis: Axis) -> Self {
        self.axes.push(axis);
        self
    }

    /// Finalizes the sweep, validating the base scenario, the axis set
    /// (non-empty axes, unique names), and every expanded cell's
    /// scenario. The grid is expanded exactly once, here; the built
    /// [`Sweep`] carries the validated cells.
    pub fn try_build(self) -> Result<Sweep, String> {
        self.base
            .validate()
            .map_err(|e| format!("invalid base scenario: {e}"))?;
        for (i, axis) in self.axes.iter().enumerate() {
            if axis.is_empty() {
                return Err(format!("axis `{}` has no values", axis.name));
            }
            if self.axes[..i].iter().any(|a| a.name == axis.name) {
                return Err(format!("duplicate axis name `{}`", axis.name));
            }
        }
        let cells = expand(&self.base, &self.axes);
        for cell in &cells {
            cell.scenario.validate().map_err(|e| {
                let coords = cell
                    .coords
                    .iter()
                    .map(|(name, value)| format!("{name}={value}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!("invalid cell {} ({coords}): {e}", cell.index)
            })?;
        }
        Ok(Sweep {
            base: self.base,
            axes: self.axes,
            cells,
        })
    }

    /// Finalizes the sweep (panics on invalid grids; use
    /// [`SweepBuilder::try_build`] for fallible construction).
    pub fn build(self) -> Sweep {
        self.try_build().expect("invalid Sweep")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::NodeSpec;

    fn base() -> Scenario {
        Scenario::builder()
            .items(32)
            .node(NodeSpec::uniform(1, 8, 16))
            .seed(7)
            .build()
    }

    #[test]
    fn expansion_is_row_major_and_deterministic() {
        let sweep = Sweep::over(base())
            .axis(Axis::nodes([1, 2]))
            .axis(Axis::distributed_cache([true, false]))
            .axis(Axis::hops([1, 2, 3]))
            .try_build()
            .unwrap();
        assert_eq!(sweep.len(), 12);
        assert_eq!(
            sweep.axis_names(),
            vec!["nodes", "distributed_cache", "hops"]
        );
        let cells = sweep.cells();
        assert_eq!(cells.len(), 12);
        // First axis slowest, last fastest.
        assert_eq!(cells[0].scenario.nodes.len(), 1);
        assert!(cells[0].scenario.distributed_cache);
        assert_eq!(cells[0].scenario.hops, 1);
        assert_eq!(cells[1].scenario.hops, 2);
        assert_eq!(cells[3].scenario.hops, 1);
        assert!(!cells[3].scenario.distributed_cache);
        assert_eq!(cells[6].scenario.nodes.len(), 2);
        // Cell indices are their positions; repeated expansion is
        // identical.
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i);
        }
        let again = sweep.cells();
        assert_eq!(format!("{cells:?}"), format!("{again:?}"));
    }

    #[test]
    fn coords_follow_axis_declaration_order() {
        let sweep = Sweep::over(base())
            .axis(Axis::distributed_cache([false]))
            .axis(Axis::nodes([4]))
            .try_build()
            .unwrap();
        let cells = sweep.cells();
        assert_eq!(cells[0].coords[0].0, "distributed_cache");
        assert_eq!(cells[0].coords[0].1, AxisValue::Bool(false));
        assert_eq!(cells[0].coords[1].0, "nodes");
        assert_eq!(cells[0].coords[1].1, AxisValue::U64(4));
        assert_eq!(cells[0].scenario.nodes.len(), 4);
        assert!(!cells[0].scenario.distributed_cache);
    }

    #[test]
    fn empty_and_duplicate_axes_rejected() {
        let err = Sweep::over(base())
            .axis(Axis::nodes(std::iter::empty()))
            .try_build()
            .unwrap_err();
        assert!(err.contains("no values"), "{err}");
        let err = Sweep::over(base())
            .axis(Axis::nodes([1]))
            .axis(Axis::nodes([2]))
            .try_build()
            .unwrap_err();
        assert!(err.contains("duplicate axis"), "{err}");
    }

    #[test]
    fn invalid_cells_rejected_with_coordinates() {
        // hops = 0 is an invalid scenario; the error names the cell.
        let err = Sweep::over(base())
            .axis(Axis::hops([1, 0]))
            .try_build()
            .unwrap_err();
        assert!(err.contains("hops=0"), "{err}");
        // Socket transport crossed with an oversized node count.
        let err = Sweep::over(base())
            .axis(Axis::transport([TransportKind::Socket]))
            .axis(Axis::nodes([crate::MAX_SOCKET_NODES + 1]))
            .try_build()
            .unwrap_err();
        assert!(err.contains("socket transport"), "{err}");
        assert!(err.contains("transport=socket"), "{err}");
    }

    #[test]
    fn invalid_base_rejected() {
        let mut bad = base();
        bad.nodes.clear();
        let err = Sweep::over(bad).try_build().unwrap_err();
        assert!(err.contains("invalid base scenario"), "{err}");
    }

    #[test]
    fn no_axes_is_a_single_cell() {
        let sweep = Sweep::over(base()).try_build().unwrap();
        assert_eq!(sweep.len(), 1);
        let cells = sweep.cells();
        assert_eq!(cells.len(), 1);
        assert!(cells[0].coords.is_empty());
        assert_eq!(cells[0].scenario, base());
    }

    #[test]
    fn later_axes_see_earlier_mutations() {
        // A custom axis that doubles whatever node count the first axis
        // set — order of application is declaration order.
        let doubler = Axis::points(
            "doubled",
            [(AxisValue::from(true), |s: &mut Scenario| {
                let n = s.nodes.len() * 2;
                let t = s.nodes[0].clone();
                s.nodes = vec![t; n];
            })],
        );
        let sweep = Sweep::over(base())
            .axis(Axis::nodes([3]))
            .axis(doubler)
            .try_build()
            .unwrap();
        assert_eq!(sweep.cells()[0].scenario.nodes.len(), 6);
    }

    #[test]
    fn tag_axes_label_without_mutating() {
        let sweep = Sweep::over(base())
            .axis(Axis::tag("policy", ["fixed8"]))
            .try_build()
            .unwrap();
        let cells = sweep.cells();
        assert_eq!(cells[0].scenario, base());
        assert_eq!(cells[0].coords[0].1, AxisValue::Str("fixed8".into()));
    }

    #[test]
    fn axis_values_serialize_and_display() {
        assert_eq!(AxisValue::from(3usize).to_json(), "3");
        assert_eq!(AxisValue::from(true).to_json(), "true");
        assert_eq!(AxisValue::from(2.5).to_json(), "2.5");
        assert_eq!(AxisValue::from("socket").to_json(), "\"socket\"");
        assert_eq!(AxisValue::from(f64::NAN).to_json(), "null");
        assert_eq!(AxisValue::from("a\"b").to_json(), "\"a\\\"b\"");
        assert_eq!(AxisValue::from(16u64).to_string(), "16");
        assert_eq!(AxisValue::from("local").to_string(), "local");
    }

    #[test]
    fn items_axis_applies() {
        let sweep = Sweep::over(base())
            .axis(Axis::items([100]))
            .try_build()
            .unwrap();
        let cell = &sweep.cells()[0];
        assert_eq!(cell.scenario.workload.items, 100);
        assert_eq!(cell.coords[0].0, "n_items");
    }
}
