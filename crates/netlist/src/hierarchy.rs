//! Hierarchical designs: modules, instances, flatten and uniquify.
//!
//! Step 1 of the SheLL flow "simply flattens and uniquifies the design"
//! before building the connectivity graph. This module provides that
//! operation: a [`Design`] is a library of modules (each a flat [`Netlist`]
//! plus child [`Instance`]s); [`Design::flatten`] inlines the instance tree
//! into a single flat netlist with hierarchical names (`inst.sub.net`),
//! uniquifying every use of a module.

use crate::cell::CellKind;
use crate::netlist::{NetId, Netlist, NetlistError};
use std::collections::BTreeMap;

/// Connection of one child port to a net of the parent module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortBinding {
    /// Port name in the child module (an input net name or output port name).
    pub port: String,
    /// The parent-module net bound to that port.
    pub net: NetId,
}

/// An instantiation of a module inside another module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// Instance name (hierarchical path component).
    pub name: String,
    /// Name of the instantiated module.
    pub module: String,
    /// Port connections.
    pub bindings: Vec<PortBinding>,
}

/// One module of a hierarchical design.
#[derive(Debug, Clone, Default)]
pub struct ModuleDef {
    /// The module's own gates and ports.
    pub netlist: Netlist,
    /// Child instances.
    pub instances: Vec<Instance>,
}

/// A library of modules with a designated top.
///
/// # Example
///
/// ```
/// use shell_netlist::{Design, Netlist, CellKind, Instance, PortBinding};
///
/// // leaf: f = NOT a
/// let mut leaf = Netlist::new("inv");
/// let a = leaf.add_input("a");
/// let f = leaf.add_cell("g", CellKind::Not, vec![a]);
/// leaf.add_output("f", f);
///
/// // top: two chained inverters
/// let mut design = Design::new("top");
/// design.add_leaf_module(leaf);
/// let top = design.top_mut();
/// let x = top.netlist.add_input("x");
/// let mid = top.netlist.add_net("mid");
/// let y = top.netlist.add_net("y");
/// top.netlist.add_output("y", y);
/// top.instances.push(Instance {
///     name: "u1".into(), module: "inv".into(),
///     bindings: vec![
///         PortBinding { port: "a".into(), net: x },
///         PortBinding { port: "f".into(), net: mid },
///     ],
/// });
/// top.instances.push(Instance {
///     name: "u2".into(), module: "inv".into(),
///     bindings: vec![
///         PortBinding { port: "a".into(), net: mid },
///         PortBinding { port: "f".into(), net: y },
///     ],
/// });
/// let flat = design.flatten().unwrap();
/// assert_eq!(flat.eval_comb(&[true]), vec![true]);
/// ```
#[derive(Debug, Clone)]
pub struct Design {
    modules: BTreeMap<String, ModuleDef>,
    top: String,
}

impl Design {
    /// Creates a design with an empty top module called `top_name`.
    pub fn new(top_name: impl Into<String>) -> Self {
        let top = top_name.into();
        let mut modules = BTreeMap::new();
        modules.insert(
            top.clone(),
            ModuleDef {
                netlist: Netlist::new(top.clone()),
                instances: Vec::new(),
            },
        );
        Self { modules, top }
    }

    /// Name of the top module.
    pub fn top_name(&self) -> &str {
        &self.top
    }

    /// The top module.
    pub fn top(&self) -> &ModuleDef {
        &self.modules[&self.top]
    }

    /// Mutable access to the top module.
    pub fn top_mut(&mut self) -> &mut ModuleDef {
        self.modules.get_mut(&self.top).expect("top module exists")
    }

    /// Adds a leaf module (no child instances). The module is registered
    /// under its netlist name.
    pub fn add_leaf_module(&mut self, netlist: Netlist) {
        self.modules.insert(
            netlist.name().to_string(),
            ModuleDef {
                netlist,
                instances: Vec::new(),
            },
        );
    }

    /// Adds a module with instances.
    pub fn add_module(&mut self, module: ModuleDef) {
        self.modules
            .insert(module.netlist.name().to_string(), module);
    }

    /// Looks up a module by name.
    pub fn module(&self, name: &str) -> Option<&ModuleDef> {
        self.modules.get(name)
    }

    /// Names of all modules.
    pub fn module_names(&self) -> impl Iterator<Item = &str> {
        self.modules.keys().map(String::as_str)
    }

    /// Number of modules.
    pub fn module_count(&self) -> usize {
        self.modules.len()
    }

    /// Flattens the instance tree under the top module into a single flat
    /// netlist. Child nets are renamed `inst.name`; child key inputs are
    /// lifted to top-level key inputs; instance output ports are stitched to
    /// their bound parent nets with buffer cells.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidId`] for unknown modules or unbound
    /// ports, or [`NetlistError::MultipleDrivers`] when an instance output is
    /// bound to an already-driven parent net.
    pub fn flatten(&self) -> Result<Netlist, NetlistError> {
        let mut out = self.top().netlist.clone();
        let mut stack: Vec<(String, &Instance)> = self
            .top()
            .instances
            .iter()
            .rev()
            .map(|i| (String::new(), i))
            .collect();
        // Depth-first inlining; `stack` holds (hierarchical prefix, instance).
        while let Some((prefix, inst)) = stack.pop() {
            let path = if prefix.is_empty() {
                inst.name.clone()
            } else {
                format!("{prefix}.{}", inst.name)
            };
            let child = self
                .modules
                .get(&inst.module)
                .ok_or_else(|| NetlistError::InvalidId(format!("module `{}`", inst.module)))?;
            self.inline_one(&mut out, &path, inst, child)?;
            // Note: nested instances of `child` must be bound to *its* nets,
            // which we have just renamed into `out`. We handle nesting by
            // recursively flattening the child first instead.
            if !child.instances.is_empty() {
                // Replace-by-recursion: flatten the child module fully, then
                // inline that flat netlist. Implemented by inline_one using
                // `flatten_module`, so nothing to push here.
            }
        }
        Ok(out)
    }

    /// Fully flattens `name` (recursively) into a flat netlist.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Design::flatten`].
    pub fn flatten_module(&self, name: &str) -> Result<Netlist, NetlistError> {
        let module = self
            .modules
            .get(name)
            .ok_or_else(|| NetlistError::InvalidId(format!("module `{name}`")))?;
        let mut out = module.netlist.clone();
        for inst in &module.instances {
            let child = self
                .modules
                .get(&inst.module)
                .ok_or_else(|| NetlistError::InvalidId(format!("module `{}`", inst.module)))?;
            self.inline_one(&mut out, &inst.name, inst, child)?;
        }
        Ok(out)
    }

    /// Inlines one instance of `child` into `parent` under hierarchical
    /// prefix `path`. Recursively flattens the child first.
    fn inline_one(
        &self,
        parent: &mut Netlist,
        path: &str,
        inst: &Instance,
        child: &ModuleDef,
    ) -> Result<(), NetlistError> {
        // Recursively flatten the child so we inline a flat netlist.
        let flat_child = if child.instances.is_empty() {
            child.netlist.clone()
        } else {
            self.flatten_module(child.netlist.name())?
        };

        let binding_of = |port: &str| -> Option<NetId> {
            inst.bindings.iter().find(|b| b.port == port).map(|b| b.net)
        };

        // Map each child net to a parent net.
        let mut net_map: Vec<Option<NetId>> = vec![None; flat_child.net_count()];

        // Child inputs must be bound.
        for &cin in flat_child.inputs() {
            let pname = flat_child.net(cin).name.clone();
            let bound = binding_of(&pname).ok_or_else(|| {
                NetlistError::InvalidId(format!("unbound input `{pname}` of `{path}`"))
            })?;
            net_map[cin.index()] = Some(bound);
        }
        // Child key inputs are lifted to parent key inputs.
        for &ckey in flat_child.key_inputs() {
            let pname = format!("{path}.{}", flat_child.net(ckey).name);
            let lifted = parent.add_key_input(pname);
            net_map[ckey.index()] = Some(lifted);
        }
        // Every other child net becomes a fresh parent net.
        for (id, net) in flat_child.nets() {
            if net_map[id.index()].is_none() {
                net_map[id.index()] = Some(parent.add_net(format!("{path}.{}", net.name)));
            }
        }
        // Copy cells.
        for (_, c) in flat_child.cells() {
            let inputs: Vec<NetId> = c
                .inputs
                .iter()
                .map(|n| net_map[n.index()].expect("mapped"))
                .collect();
            let out_net = net_map[c.output.index()].expect("mapped");
            parent.add_cell_driving(format!("{path}.{}", c.name), c.kind, inputs, out_net)?;
        }
        // Stitch bound outputs with buffers.
        for (pname, onet) in flat_child.outputs() {
            if let Some(bound) = binding_of(pname) {
                let src = net_map[onet.index()].expect("mapped");
                parent.add_cell_driving(
                    format!("{path}.{pname}__out"),
                    CellKind::Buf,
                    vec![src],
                    bound,
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;

    fn inv_module() -> Netlist {
        let mut leaf = Netlist::new("inv");
        let a = leaf.add_input("a");
        let f = leaf.add_cell("g", CellKind::Not, vec![a]);
        leaf.add_output("f", f);
        leaf
    }

    fn and_module() -> Netlist {
        let mut leaf = Netlist::new("and2");
        let a = leaf.add_input("a");
        let b = leaf.add_input("b");
        let f = leaf.add_cell("g", CellKind::And, vec![a, b]);
        leaf.add_output("f", f);
        leaf
    }

    #[test]
    fn flatten_two_instances() {
        let mut d = Design::new("top");
        d.add_leaf_module(inv_module());
        let top = d.top_mut();
        let x = top.netlist.add_input("x");
        let mid = top.netlist.add_net("mid");
        let y = top.netlist.add_net("y");
        top.netlist.add_output("y", y);
        for (name, i, o) in [("u1", x, mid), ("u2", mid, y)] {
            top.instances.push(Instance {
                name: name.into(),
                module: "inv".into(),
                bindings: vec![
                    PortBinding {
                        port: "a".into(),
                        net: i,
                    },
                    PortBinding {
                        port: "f".into(),
                        net: o,
                    },
                ],
            });
        }
        let flat = d.flatten().unwrap();
        flat.validate().unwrap();
        assert_eq!(flat.eval_comb(&[true]), vec![true]);
        assert_eq!(flat.eval_comb(&[false]), vec![false]);
        // Hierarchical names present.
        assert!(flat.find_cell("u1.g").is_some());
        assert!(flat.find_cell("u2.g").is_some());
    }

    #[test]
    fn flatten_nested_hierarchy() {
        // mid = inv(inv(x)) as a module, top instantiates mid once.
        let mut d = Design::new("top");
        d.add_leaf_module(inv_module());
        let mut mid = ModuleDef {
            netlist: Netlist::new("mid"),
            instances: Vec::new(),
        };
        let a = mid.netlist.add_input("a");
        let w = mid.netlist.add_net("w");
        let f = mid.netlist.add_net("f");
        mid.netlist.add_output("f", f);
        mid.instances.push(Instance {
            name: "i1".into(),
            module: "inv".into(),
            bindings: vec![
                PortBinding {
                    port: "a".into(),
                    net: a,
                },
                PortBinding {
                    port: "f".into(),
                    net: w,
                },
            ],
        });
        mid.instances.push(Instance {
            name: "i2".into(),
            module: "inv".into(),
            bindings: vec![
                PortBinding {
                    port: "a".into(),
                    net: w,
                },
                PortBinding {
                    port: "f".into(),
                    net: f,
                },
            ],
        });
        d.add_module(mid);
        let top = d.top_mut();
        let x = top.netlist.add_input("x");
        let y = top.netlist.add_net("y");
        top.netlist.add_output("y", y);
        top.instances.push(Instance {
            name: "m".into(),
            module: "mid".into(),
            bindings: vec![
                PortBinding {
                    port: "a".into(),
                    net: x,
                },
                PortBinding {
                    port: "f".into(),
                    net: y,
                },
            ],
        });
        let flat = d.flatten().unwrap();
        flat.validate().unwrap();
        assert_eq!(flat.eval_comb(&[true]), vec![true]);
        assert!(
            flat.find_cell("m.i1.g").is_some(),
            "uniquified nested names"
        );
    }

    #[test]
    fn key_inputs_lifted() {
        let mut locked = Netlist::new("locked");
        let a = locked.add_input("a");
        let k = locked.add_key_input("k");
        let f = locked.add_cell("g", CellKind::Xor, vec![a, k]);
        locked.add_output("f", f);
        let mut d = Design::new("top");
        d.add_leaf_module(locked);
        let top = d.top_mut();
        let x = top.netlist.add_input("x");
        let y = top.netlist.add_net("y");
        top.netlist.add_output("y", y);
        top.instances.push(Instance {
            name: "u".into(),
            module: "locked".into(),
            bindings: vec![
                PortBinding {
                    port: "a".into(),
                    net: x,
                },
                PortBinding {
                    port: "f".into(),
                    net: y,
                },
            ],
        });
        let flat = d.flatten().unwrap();
        assert_eq!(flat.key_inputs().len(), 1);
        assert_eq!(flat.eval_comb_with_key(&[true], &[true]), vec![false]);
    }

    #[test]
    fn unbound_input_errors() {
        let mut d = Design::new("top");
        d.add_leaf_module(and_module());
        let top = d.top_mut();
        let x = top.netlist.add_input("x");
        let y = top.netlist.add_net("y");
        top.netlist.add_output("y", y);
        top.instances.push(Instance {
            name: "u".into(),
            module: "and2".into(),
            bindings: vec![
                PortBinding {
                    port: "a".into(),
                    net: x,
                },
                // `b` left unbound.
                PortBinding {
                    port: "f".into(),
                    net: y,
                },
            ],
        });
        assert!(d.flatten().is_err());
    }

    #[test]
    fn unknown_module_errors() {
        let mut d = Design::new("top");
        let top = d.top_mut();
        let x = top.netlist.add_input("x");
        top.instances.push(Instance {
            name: "u".into(),
            module: "ghost".into(),
            bindings: vec![PortBinding {
                port: "a".into(),
                net: x,
            }],
        });
        assert!(matches!(d.flatten(), Err(NetlistError::InvalidId(_))));
    }

    #[test]
    fn module_registry() {
        let mut d = Design::new("top");
        d.add_leaf_module(inv_module());
        assert_eq!(d.module_count(), 2);
        assert!(d.module("inv").is_some());
        assert!(d.module("nope").is_none());
        assert!(d.module_names().any(|n| n == "top"));
        assert_eq!(d.top_name(), "top");
    }
}
