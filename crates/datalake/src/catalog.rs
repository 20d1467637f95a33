//! The global catalog of the CLDS.
//!
//! §6: realizing the SMN's global data lake "requires a (1) A queryable
//! global catalog describing data sets and metadata, including team names,
//! data type (alert/incident/log/telemetry), data schema, units (2) a
//! uniform schema, (3) access control policies …". This module is (1) and
//! (2).

use serde::{Deserialize, Serialize};

/// The four CLDS data types the paper names, plus derived telemetry kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// Alert streams.
    Alert,
    /// Incident records.
    Incident,
    /// Unstructured logs.
    Log,
    /// Structured telemetry (health metrics, probes).
    Telemetry,
    /// Bandwidth logs (capacity-planning telemetry).
    BandwidthLog,
}

/// A field of a dataset's schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchemaField {
    /// Field name.
    pub name: String,
    /// Primitive type name (`"u64"`, `"f64"`, `"string"`, `"bool"`).
    pub ty: String,
    /// Units, e.g. `"Gbps"`, `"ms"`; empty for unitless fields.
    pub unit: String,
}

impl SchemaField {
    /// Convenience constructor.
    #[must_use]
    pub fn new(name: &str, ty: &str, unit: &str) -> Self {
        Self { name: name.into(), ty: ty.into(), unit: unit.into() }
    }
}

/// Descriptor of one dataset registered in the catalog.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetDescriptor {
    /// Globally unique dataset name, e.g. `"wan/bandwidth-logs"`.
    pub name: String,
    /// Owning team.
    pub team: String,
    /// CLDS data type.
    pub data_type: DataType,
    /// Uniform schema of the dataset's rows.
    pub schema: Vec<SchemaField>,
    /// Free-text description.
    pub description: String,
}

/// The global catalog: what exists in the lake, owned by whom, shaped how.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Catalog {
    datasets: Vec<DatasetDescriptor>,
}

impl Catalog {
    /// Register a dataset.
    ///
    /// # Panics
    /// Panics on a duplicate dataset name — names are the global key other
    /// teams discover data by.
    pub fn register(&mut self, d: DatasetDescriptor) {
        assert!(self.get(&d.name).is_none(), "dataset {} already registered", d.name);
        self.datasets.push(d);
    }

    /// Look up by exact name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&DatasetDescriptor> {
        self.datasets.iter().find(|d| d.name == name)
    }

    /// Number of registered datasets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.datasets.len()
    }

    /// Whether the catalog is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.datasets.is_empty()
    }
}

/// The built-in descriptors for the record types of `smn-telemetry`, so
/// every SMN instance starts with a uniform-schema catalog.
#[must_use]
pub fn builtin_descriptors() -> Vec<DatasetDescriptor> {
    vec![
        DatasetDescriptor {
            name: "wan/bandwidth-logs".into(),
            team: "traffic-engineering".into(),
            data_type: DataType::BandwidthLog,
            schema: vec![
                SchemaField::new("ts", "u64", "s"),
                SchemaField::new("src", "u32", ""),
                SchemaField::new("dst", "u32", ""),
                SchemaField::new("gbps", "f64", "Gbps"),
            ],
            description: "Per-epoch inter-DC bandwidth demand (Listing 1 format)".into(),
        },
        DatasetDescriptor {
            name: "ops/alerts".into(),
            team: "reliability".into(),
            data_type: DataType::Alert,
            schema: vec![
                SchemaField::new("ts", "u64", "s"),
                SchemaField::new("component", "string", ""),
                SchemaField::new("team", "string", ""),
                SchemaField::new("kind", "string", ""),
                SchemaField::new("severity", "string", ""),
                SchemaField::new("message", "string", ""),
            ],
            description: "Cross-team alert stream".into(),
        },
        DatasetDescriptor {
            name: "ops/health".into(),
            team: "reliability".into(),
            data_type: DataType::Telemetry,
            schema: vec![
                SchemaField::new("ts", "u64", "s"),
                SchemaField::new("component", "string", ""),
                SchemaField::new("metric", "string", ""),
                SchemaField::new("value", "f64", ""),
            ],
            description: "Internal health metrics polled at 1-minute intervals".into(),
        },
        DatasetDescriptor {
            name: "ops/probes".into(),
            team: "network".into(),
            data_type: DataType::Telemetry,
            schema: vec![
                SchemaField::new("ts", "u64", "s"),
                SchemaField::new("src_cluster", "string", ""),
                SchemaField::new("dst_cluster", "string", ""),
                SchemaField::new("success", "bool", ""),
                SchemaField::new("latency_ms", "f64", "ms"),
            ],
            description: "Pairwise reachability probes between clusters".into(),
        },
        DatasetDescriptor {
            name: "ops/incidents".into(),
            team: "reliability".into(),
            data_type: DataType::Incident,
            schema: vec![
                SchemaField::new("id", "u64", ""),
                SchemaField::new("opened_at", "u64", "s"),
                SchemaField::new("title", "string", ""),
                SchemaField::new("routed_to", "string", ""),
                SchemaField::new("priority", "u8", ""),
            ],
            description: "Incident records routed by the CLTO".into(),
        },
        DatasetDescriptor {
            name: "ops/logs".into(),
            team: "reliability".into(),
            data_type: DataType::Log,
            schema: vec![
                SchemaField::new("ts", "u64", "s"),
                SchemaField::new("component", "string", ""),
                SchemaField::new("severity", "string", ""),
                SchemaField::new("text", "string", ""),
            ],
            description: "Unstructured log events (data-lake side of the CLDS)".into(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::default();
        for d in builtin_descriptors() {
            c.register(d);
        }
        assert_eq!(c.len(), 6);
        assert!(c.get("wan/bandwidth-logs").is_some());
        assert!(c.get("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_rejected() {
        let mut c = Catalog::default();
        let d = builtin_descriptors().remove(0);
        c.register(d.clone());
        c.register(d);
    }
}
