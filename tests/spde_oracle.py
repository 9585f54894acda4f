"""The backward SPDE that one draw of the value field solves, by finite differences (numpy only).

On an interval with phi = psi = zero, f = 0, sigma = 1 and no drift, one draw of the field u(t, x; B)
of `sample_field` solves the backward SPDE (Pardoux and Peng, PTRF 98, 1994)

    u(t) = chi + int_t^T 1/2 u_xx ds + int_t^T h(u) <-dB_s,   du/dn = g on the boundary,

with n the outward normal: the projection scheme pushes a path along the inward unit normal by the
local-time increment dA, so Ito's formula turns the sweep's g dA term into this flux.

The oracle runs the field's own grid backward.  Each step, from t_{i+1} to t_i, first applies the
noise term at the right endpoint, u + h(u) dB_i, as the sweep does, then `sub_steps` implicit Euler
steps of u_t = 1/2 u_xx over dt_i on uniform nodes, the flux entering through ghost points.  Each
implicit step is a tridiagonal (Thomas) solve; with the same dt at every step the sub-steps compose
to one affine map u -> P u + q, built once by Thomas solves on the columns of [I | 0].
"""
import numpy as np


def _thomas(sub, diag, sup, rhs):
    """x with (sub, diag, sup) x = rhs, the tridiagonal system along the first axis of rhs; sub[0] and
    sup[-1] are not read, and every axis of rhs after the first is a batch axis."""
    n = len(diag)
    c, x = np.zeros(n), np.array(rhs, dtype=float)
    m = diag[0]
    for i in range(n):
        if i:
            m = diag[i] - sub[i] * c[i - 1]
            x[i] -= sub[i] * x[i - 1]
        x[i] /= m
        if i < n - 1:
            c[i] = sup[i] / m
    for i in range(n - 2, -1, -1):
        x[i] -= c[i] * x[i + 1]
    return x


def heat_map(n_nodes, dx, dt, sub_steps, g):
    """(P, q) with u -> P u + q the sub_steps implicit Euler steps of u_t = 1/2 u_xx over dt, on n_nodes
    nodes dx apart, with outward-normal derivative g at both ends (ghost point u_{-1} = u_1 + 2 dx g)."""
    r = 0.5 * (dt / sub_steps) / dx ** 2
    diag, sub, sup = np.full(n_nodes, 1.0 + 2.0 * r), np.full(n_nodes, -r), np.full(n_nodes, -r)
    sup[0] = sub[-1] = -2.0 * r  # the ghost point mirrors the inner neighbour
    flux = np.zeros(n_nodes)
    flux[[0, -1]] = 2.0 * r * dx * g
    pq = np.hstack([np.eye(n_nodes), np.zeros((n_nodes, 1))])  # the columns of P, then q
    for _ in range(sub_steps):
        pq[:, -1] += flux
        pq = _thomas(sub, diag, sup, pq)
    return pq[:, :-1], pq[:, -1]


def solve_spde(chi, g, h, db, T, n_nodes=401, sub_steps=20, lo=-1.0, hi=1.0):
    """(x, u): the nodes of [lo, hi] and u of shape (len(db) + 1, n_nodes), row i the solution at the
    node t_i of the uniform grid of len(db) steps on [0, T], for the terminal map chi(x), the constant
    flux g, the noise map h(u) and the backward increments db (one number per step)."""
    x = np.linspace(lo, hi, n_nodes)
    n = len(db)
    P, q = heat_map(n_nodes, x[1] - x[0], T / n, sub_steps, g)
    u = np.empty((n + 1, n_nodes))
    u[n] = chi(x)
    for i in range(n - 1, -1, -1):
        u[i] = P @ (u[i + 1] + h(u[i + 1]) * db[i]) + q
    return x, u
