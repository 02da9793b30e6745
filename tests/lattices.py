"""Midpoint point-lattice discretizations of the continuum bodies: the
independent oracles the continuum spectra are checked against."""

import numpy as np
from numpy.polynomial.legendre import leggauss

from cslbounds import PointLattice


def cuboid_lattice(g, n):
    """Midpoint-rule point lattice filling a cuboid, n cells per side."""
    cs = []
    for L in (g.Lx, g.Ly, g.Lz):
        e = np.linspace(-L / 2.0, L / 2.0, n + 1)
        cs.append(0.5 * (e[:-1] + e[1:]))
    X, Y, Z = np.meshgrid(*cs, indexing="ij")
    pos = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=-1)
    masses = np.full(pos.shape[0], g.m / pos.shape[0])
    return PointLattice(pos, masses)


def sphere_lattice(g, n):
    """Spherical-grid point lattice: n radial midpoint cells, n
    Gauss-Legendre polar nodes and n azimuthal cells, mass-weighted by
    cell volume."""
    re = np.linspace(0.0, g.R, n + 1)
    rmid = 0.5 * (re[:-1] + re[1:])
    cosn, cosw = leggauss(n)
    phis = (np.arange(n) + 0.5) * (2.0 * np.pi / n)
    Rg, Cg, Pg = np.meshgrid(rmid, cosn, phis, indexing="ij")
    Wr, Wc, Wp = np.meshgrid(rmid ** 2 * (re[1] - re[0]), cosw,
                             np.full(n, 2.0 * np.pi / n), indexing="ij")
    w = (Wr * Wc * Wp).ravel()
    st = np.sqrt(1.0 - Cg ** 2)
    pos = np.stack([(Rg * st * np.cos(Pg)).ravel(),
                    (Rg * st * np.sin(Pg)).ravel(),
                    (Rg * Cg).ravel()], axis=-1)
    return PointLattice(pos, g.m * w / np.sum(w))


def cylinder_lattice(g, n):
    """Cylindrical-grid point lattice along the cylinder's axis: n radial,
    2n azimuthal and n axial cells, mass-weighted by cell volume."""
    re = np.linspace(0.0, g.R, n + 1)
    rc_ = 0.5 * (re[:-1] + re[1:])
    phis = (np.arange(2 * n) + 0.5) * (2.0 * np.pi / (2 * n))
    ze = np.linspace(-g.L / 2.0, g.L / 2.0, n + 1)
    zc = 0.5 * (ze[:-1] + ze[1:])
    Rg, Pg, Zg = np.meshgrid(rc_, phis, zc, indexing="ij")
    w = (Rg * (re[1] - re[0]) * (phis[1] - phis[0])
         * (ze[1] - ze[0])).ravel()
    local = np.stack([(Rg * np.cos(Pg)).ravel(), (Rg * np.sin(Pg)).ravel(),
                      Zg.ravel()], axis=-1)
    # rotate local z onto the cylinder axis
    n_ax = np.asarray(g.axis)
    if np.allclose(n_ax, [0.0, 0.0, 1.0]):
        pos = local
    else:
        v = np.cross([0.0, 0.0, 1.0], n_ax)
        s = np.linalg.norm(v)
        c = float(np.dot([0.0, 0.0, 1.0], n_ax))
        vx = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]],
                       [-v[1], v[0], 0.0]])
        rot = np.eye(3) + vx + vx @ vx * ((1.0 - c) / s ** 2)
        pos = local @ rot.T
    masses = g.m * w / np.sum(w)
    return PointLattice(pos, masses)


def multilayer_lattice(g, n, per_layer):
    """Midpoint point lattice of a Multilayer: n x n cells across the
    cross-section and per_layer cells through each layer, each point
    carrying its cell's mass."""
    ds, rhos, centers = g.layers()
    # per axis: cell centers and the cell's mass weight along that axis
    cells = {g.stacking_axis: np.array([
        (c + d * ((j + 0.5) / per_layer - 0.5), rho * d / per_layer)
        for d, rho, c in zip(ds, rhos, centers)
        for j in range(per_layer)]).T}
    others = [axis for axis in "xyz" if axis != g.stacking_axis]
    for axis, L in zip(others, (g.Lx, g.Ly)):
        cells[axis] = ((np.arange(n) + 0.5) / n * L - L / 2.0,
                       np.full(n, L / n))
    (xs, wx), (ys, wy), (zs, wz) = (cells[axis] for axis in "xyz")
    grids = np.meshgrid(xs, ys, zs, indexing="ij")
    masses = wx[:, None, None] * wy[None, :, None] * wz[None, None, :]
    return PointLattice(np.stack([c.ravel() for c in grids], axis=-1),
                        masses.ravel())
