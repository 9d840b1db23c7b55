"""Tests for draft token trees.

``TestExtraction`` pins the reference extraction in ``tests/conftest.py``
(``ObjectTree.extract_selected``), which the selection and verification
oracles compare the index-based trees against.
"""

from __future__ import annotations

import pytest

from repro.core.tree import TokenTree
from tests.conftest import ObjectTree, object_tree


def chain_tree(probs: list[float]) -> TokenTree:
    """Root -> chain of nodes with the given conditional probs."""
    tree = TokenTree(0, 100)
    node = 0
    for i, p in enumerate(probs):
        node = tree.add_child(node, i + 1, 100 + i + 1, p)
    return tree


def object_chain_tree(probs: list[float]) -> ObjectTree:
    tree = ObjectTree(0, 100)
    node = tree.root
    for i, p in enumerate(probs):
        node = tree.add_child(node, i + 1, 100 + i + 1, p)
    return tree


class TestConstruction:
    def test_root_properties(self):
        tree = TokenTree(7, 999)
        assert tree.parent == [-1]
        assert tree.token[0] == 7
        assert tree.ctx[0] == 999
        assert tree.path_prob[0] == 1.0
        assert tree.size == 1
        assert tree.num_speculated == 0
        assert tree.depth == 0

    def test_add_child_path_prob(self):
        tree = TokenTree(0, 1)
        a = tree.add_child(0, 1, 2, 0.5)
        b = tree.add_child(a, 2, 3, 0.4)
        assert (a, b) == (1, 2)
        assert tree.path_prob[a] == 0.5
        assert tree.path_prob[b] == pytest.approx(0.2)
        assert tree.level[b] == 2
        assert tree.parent[b] == a
        assert tree.children(0) == [a] and tree.children(a) == [b]

    def test_invalid_prob_rejected(self):
        tree = TokenTree(0, 1)
        with pytest.raises(ValueError):
            tree.add_child(0, 1, 2, 1.5)

    def test_path_tokens(self):
        tree = chain_tree([0.9, 0.8, 0.7])
        path, node = [], tree.size - 1
        while node > 0:
            path.append(tree.token[node])
            node = tree.parent[node]
        assert path[::-1] == [1, 2, 3]
        assert tree.parent[0] == -1  # the root's path is empty

    def test_nodes_iteration(self):
        tree = chain_tree([0.9, 0.8])
        ref = object_tree(tree)
        assert [n.token_id for n in ref.nodes()] == tree.token
        assert [n.path_prob for n in ref.nodes(include_root=False)] == tree.path_prob[1:]

    def test_children_follow_later_additions(self):
        tree = TokenTree(0, 1)
        a = tree.add_child(0, 1, 2, 0.9)
        assert tree.children(0) == [a]  # builds the child lists
        b = tree.add_child(0, 2, 3, 0.05)
        c = tree.add_child(a, 3, 4, 0.5)
        assert tree.child_lists() == [[a, b], [c], [], []]

    def test_from_columns(self):
        tree = TokenTree.from_columns(
            [0, 5, 6], [10, 11, 12], [1.0, 0.5, 0.25], [1.0, 0.5, 0.125], [0, 1, 2], [-1, 0, 1]
        )
        assert tree.children(1) == [2]
        assert tree.selected == [False] * 3
        assert tree.depth == 2


class TestSelection:
    def test_selected_counts(self):
        tree = chain_tree([0.9, 0.8])
        tree.selected[1] = True
        assert sum(tree.selected) == 1
        assert object_tree(tree).extract_selected().num_speculated == 1

    def test_selected_path_prob_sum(self):
        # The selection objective: sum of f(v) over selected nodes.
        tree = chain_tree([0.5, 0.5])
        tree.selected[1:] = [True, True]
        chosen = [p for p, s in zip(tree.path_prob, tree.selected) if s]
        assert sum(chosen) == pytest.approx(0.5 + 0.25)

    def test_clear_selection(self):
        tree = chain_tree([0.5])
        tree.selected[1] = True
        tree.clear_selection()
        assert not any(tree.selected)

    def test_connectivity_check(self):
        tree = TokenTree(0, 1)
        a = tree.add_child(0, 1, 2, 0.9)
        b = tree.add_child(a, 2, 3, 0.8)
        tree.selected[b] = True  # orphan: parent a not selected
        assert not object_tree(tree).is_selection_connected()
        tree.selected[a] = True
        assert object_tree(tree).is_selection_connected()

    def test_child_of_root_always_connected(self):
        tree = TokenTree(0, 1)
        a = tree.add_child(0, 1, 2, 0.9)
        tree.selected[a] = True
        assert object_tree(tree).is_selection_connected()


class TestExtraction:
    def test_extract_rejects_disconnected(self):
        tree = ObjectTree(0, 1)
        a = tree.add_child(tree.root, 1, 2, 0.9)
        b = tree.add_child(a, 2, 3, 0.8)
        b.selected = True
        with pytest.raises(ValueError):
            tree.extract_selected()

    def test_extract_structure(self):
        tree = ObjectTree(0, 1)
        a = tree.add_child(tree.root, 1, 10, 0.9)
        tree.add_child(tree.root, 2, 11, 0.5)
        c = tree.add_child(a, 3, 12, 0.8)
        a.selected = True
        c.selected = True
        out = tree.extract_selected()
        assert out.size == 3  # root + a + c
        assert out.root.ctx_hash == 1
        (a2,) = out.root.children
        assert a2.token_id == 1 and a2.ctx_hash == 10
        (c2,) = a2.children
        assert c2.token_id == 3 and c2.ctx_hash == 12

    def test_extract_empty_selection(self):
        tree = object_chain_tree([0.9])
        out = tree.extract_selected()
        assert out.size == 1

    def test_extract_preserves_path_probs(self):
        tree = object_chain_tree([0.5, 0.4])
        for n in tree.nodes(include_root=False):
            n.selected = True
        out = tree.extract_selected()
        leaf = out.nodes()[-1]
        assert leaf.path_prob == pytest.approx(0.2)

    def test_extract_is_independent_copy(self):
        tree = object_chain_tree([0.9])
        child = tree.nodes(include_root=False)[0]
        child.selected = True
        out = tree.extract_selected()
        tree.clear_selection()
        assert out.size == 2  # unaffected by source mutation
